import itertools
import math
import random
import re
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import emitted, make_doc, plain_layers, shared_column_docs
from pathfuse import (
    CadPath,
    FrameMismatchError,
    Layer,
    ParseError,
    PathMLDocument,
    ProcessParameters,
    ProcessType,
    SchemaError,
    Track,
    ValidationError,
    build_document,
    expand_layers,
    fuse,
    fused_path_to_json,
    parse_xml,
    to_robot_frame,
    validate_document,
    write_xml,
)
from pathfuse import pathml
from pathfuse.cli import main
from pathfuse.pathml import (
    POINT_ATTRS,
    _escape,
    _parse_tree,
    _points_xml,
    _quoteattr,
    _scan_canonical,
    xml_chunks,
)
from test_acceptance import _random_grid_doc
from test_fusion import SQUARE, make_calib, ramp_demo


def robot_path():
    return to_robot_frame(fuse(CadPath(SQUARE), ramp_demo()), make_calib(11))


class TestBuild:
    def test_basic_structure(self):
        doc = build_document(robot_path(), ProcessParameters("adhesive", glue_flow_rate=12.0), "bead")
        assert doc.project_name == "bead"
        assert len(doc.layers) == 1
        layer = doc.layers[0]
        assert layer.name == "Layer_0" and layer.index == 0
        assert len(layer.tracks) == 1
        track = layer.tracks[0]
        assert track.name == "Track_0" and track.tool_active
        assert len(track.points) == 4
        assert validate_document(doc) == []

    def test_values_in_degrees(self):
        path = robot_path()
        doc = build_document(path, ProcessParameters("other"), "p")
        x, _, _, rx, _, _, v = doc.layers[0].tracks[0].points[2]
        assert math.isclose(x, path.positions[2, 0])
        assert math.isclose(rx, math.degrees(path.orientations[2, 0]))
        assert math.isclose(v, path.speeds[2])

    def test_requires_robot_frame(self):
        fused = fuse(CadPath(SQUARE), ramp_demo())
        with pytest.raises(FrameMismatchError):
            build_document(fused, ProcessParameters("other"), "p")

    def test_write_refuses_inconsistent_process(self, tmp_path, capsys):
        # build_document checks no document rule; write_xml is the gate on the write path
        doc = build_document(robot_path(), ProcessParameters("adhesive"), "p")
        with pytest.raises(ValidationError, match="GlueFlowRate_ml_min"):
            write_xml(doc)
        (tmp_path / "fused.json").write_text(fused_path_to_json(robot_path()))
        code = main(["pathml", "gen", "--fused", str(tmp_path / "fused.json"), "--project", "p",
                     "--process-type", "adhesive", "-o", str(tmp_path / "p.aml")])
        assert code == 2
        assert "adhesive requires GlueFlowRate_ml_min" in capsys.readouterr().err
        assert not (tmp_path / "p.aml").exists()


class TestTrack:
    def test_points_are_a_read_only_copy(self):
        rows = np.arange(14.0).reshape(2, 7)
        track = Track("T", rows, True)
        rows[0, 0] = 99.0
        assert track.points[0, 0] == 0.0
        assert track.points.shape == (2, 7) and track.points.dtype == np.float64
        with pytest.raises(ValueError):
            track.points[0, 0] = 1.0

    def test_empty_input_is_zero_rows(self):
        assert Track("T", (), True).points.shape == (0, 7)
        assert Track("T", np.empty((0, 3)), True).points.shape == (0, 7)

    @pytest.mark.parametrize(
        "points", [np.zeros(7), np.zeros((2, 6)), np.zeros((2, 8)), np.zeros((1, 2, 7)), [(1.0, 2.0)]]
    )
    def test_wrong_shape_rejected(self, points):
        with pytest.raises(ValueError, match="shape"):
            Track("T", points, True)

    def test_value_equality(self):
        rows = [(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
        assert Track("T", rows, True) == Track("T", np.array(rows), True)
        assert Track("T", rows, True) != Track("T", rows, False)
        assert Track("T", rows, True) != Track("U", rows, True)
        assert Track("T", rows, True) != Track("T", [(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0)], True)
        assert Track("T", rows, True) != Track("T", rows * 2, True)


class TestProcessParameters:
    def test_string_type_coerced(self):
        p = ProcessParameters("welding", wire_feed_rate=8.0)
        assert p.process_type is ProcessType.WELDING

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError):
            ProcessParameters("gluing")

    def test_extra_mapping_normalized(self):
        p = ProcessParameters("other", extra={"Voltage_V": "24"})
        assert p.extra == (("Voltage_V", "24"),)


class TestValidate:
    def _details(self, doc):
        return [v.detail for v in validate_document(doc)]

    def test_adhesive_requires_glue_rate(self):
        doc = make_doc(process=ProcessParameters("adhesive"))
        assert any("GlueFlowRate" in d for d in self._details(doc))

    def test_welding_requires_wire_rate(self):
        doc = make_doc(process=ProcessParameters("welding"))
        assert any("WireFeedRate" in d for d in self._details(doc))

    def test_rates_must_be_finite(self):
        doc = make_doc(process=ProcessParameters("adhesive", glue_flow_rate=math.inf))
        assert any("not finite" in d for d in self._details(doc))
        doc = make_doc(process=ProcessParameters("welding", wire_feed_rate=math.nan))
        assert any("not finite" in d for d in self._details(doc))

    def test_layer_height_positive(self):
        doc = make_doc(process=ProcessParameters("other", layer_height=0.0))
        assert any("LayerHeight_mm must be positive" in d for d in self._details(doc))

    def test_reserved_extra_name(self):
        doc = make_doc(process=ProcessParameters("other", extra={"ProcessType": "x"}))
        assert any("reserved" in d for d in self._details(doc))

    def test_duplicate_extra_name(self):
        p = ProcessParameters("other", extra=(("A", "1"), ("A", "2")))
        assert any("duplicate extra" in d for d in self._details(make_doc(process=p)))

    def test_document_needs_layers(self):
        doc = PathMLDocument("p", ProcessParameters("other"), ())
        assert any("no layers" in d for d in self._details(doc))

    def test_duplicate_layer_names(self):
        base = make_doc()
        doc = PathMLDocument("p", base.process, (base.layers[0], base.layers[0]))
        assert any("duplicate layer name" in d for d in self._details(doc))

    def test_negative_layer_index(self):
        base = make_doc()
        layer = Layer("L", -1, base.layers[0].tracks)
        doc = PathMLDocument("p", base.process, (layer,))
        assert any("index" in d for d in self._details(doc))

    def test_layer_needs_tracks(self):
        doc = PathMLDocument("p", ProcessParameters("other"), (Layer("L", 0, ()),))
        assert any("no tracks" in d for d in self._details(doc))

    def test_duplicate_track_names(self):
        base = make_doc()
        track = base.layers[0].tracks[0]
        doc = PathMLDocument("p", base.process, (Layer("L", 0, (track, track)),))
        assert any("duplicate track name" in d for d in self._details(doc))

    def test_track_needs_two_points(self):
        base = make_doc()
        short = Track("T", base.layers[0].tracks[0].points[:1], True)
        doc = PathMLDocument("p", base.process, (Layer("L", 0, (short,)),))
        assert any("at least 2" in d for d in self._details(doc))

    def test_non_finite_coordinate(self):
        pts = [(0, 0, 0, 0, 0, 0, 10), (math.nan, 0, 0, 0, 0, 0, 10)]
        doc = PathMLDocument(
            "p", ProcessParameters("other"), (Layer("L", 0, (Track("T", pts, True),)),)
        )
        vs = validate_document(doc)
        assert any("finite" in v.rule for v in vs)

    def test_negative_velocity(self):
        doc = make_doc(velocity=-1.0)
        assert any("velocity must be >= 0" in d for d in self._details(doc))

    def test_violation_paths_locate_the_problem(self):
        doc = make_doc(velocity=-1.0)
        v = validate_document(doc)[0]
        assert "Layer_0" in v.path and "Track_0" in v.path and "Point_0" in v.path
        assert str(v).startswith(v.path + ": ")

    def test_clean_document_passes(self):
        assert validate_document(make_doc()) == []


class TestWriter:
    def test_deterministic_bytes(self):
        assert write_xml(make_doc()) == write_xml(make_doc())

    def test_refuses_invalid(self):
        with pytest.raises(ValidationError):
            write_xml(make_doc(velocity=-1.0))

    def test_the_point_writer_keeps_nothing_of_a_track_while_its_text_is_out(self):
        # the caller encodes and writes each track's text while the generator waits: it
        # holds no pieces of that text then, and after the last track no column cache
        tracks = [np.arange(21.0).reshape(3, 7), np.arange(21.0).reshape(3, 7) + [0, 0, 1, 0, 0, 0, 0]]
        texts = pathml._points_xml(tracks)
        for _ in tracks:
            text = next(texts)
            held = texts.gi_frame.f_locals
            assert held["cells"] == [] and all(value is not text for value in held.values())
        assert held["formatted"] == {}
        assert next(texts, None) is None

    def test_layout(self):
        data = write_xml(make_doc(project="widget"))
        text = data.decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == '<?xml version="1.0" encoding="UTF-8"?>'
        assert '<CAEXFile FileName="widget.aml">' in text
        assert '<InstanceHierarchy Name="PathML">' in text
        assert text.endswith("\n")
        assert "\t" not in text
        # every indent is a multiple of two spaces
        for line in lines:
            stripped = len(line) - len(line.lstrip(" "))
            assert stripped % 2 == 0

    def test_six_decimals_and_no_negative_zero(self):
        doc = make_doc(xs=(-0.0, 10.0, 20.0))
        text = write_xml(doc).decode()
        assert "<Value>0.000000</Value>" in text
        assert "-0.000000" not in text

    # expected strings come from the per-value formatters these writers replaced
    @pytest.mark.parametrize(
        "value, three, six",
        [
            (-0.0, "0.000", "0.000000"),
            (-1e-9, "0.000", "0.000000"),
            (-4e-4, "0.000", "-0.000400"),
            (-5e-4, "-0.001", "-0.000500"),
            (-4e-7, "0.000", "0.000000"),
            (-5e-7, "0.000", "0.000000"),
        ],
    )
    def test_negative_zero_dropped_after_rounding(self, value, three, six):
        doc = PathMLDocument(
            "p",
            ProcessParameters("other"),
            (Layer("L", 0, (Track("T", [(value,) * 6 + (-0.0,)] * 2, True),)),),
        )
        values = [line.split("<Value>")[1].split("</Value>")[0]
                  for line in write_xml(doc).decode().splitlines() if "_mm" in line or "_deg" in line]
        assert values == [six] * 6 + ["0.000000"] + [six] * 6 + ["0.000000"]
        moves = [line for line in emitted(doc).lines if line.startswith("MOVEL")]
        assert moves == [f"MOVEL {' '.join([three] * 6)} V=0.000"] * 2

    EDGE_ROWS = [
        (-0.0, 5e-7, -5e-7, 5e-4, -5e-4, 1e15, 0.0),
        (-4e-7, 5e-10, -0.0000005, 0.0000015, -1e15, 123.4565, 2.5e-7),
        (1.0, -2.0, 3.0, 1e-300, -1e-300, 359.9999995, 100.0),
    ]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_points_match_per_row_format(self, n):
        points = np.array(self.EDGE_ROWS[:n], dtype=float).reshape(n, 7)
        assert list(_points_xml([points])) == [oracles.pathml_points(points)]

    @settings(deadline=None, max_examples=60)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(7)), elements=st.floats(-1e16, 1e16)))
    def test_points_match_per_row_format_hypothesis(self, points):
        assert list(_points_xml([points])) == [oracles.pathml_points(points)]

    def test_document_points_match_per_row_format(self):
        rows = np.array(self.EDGE_ROWS)
        doc = PathMLDocument(
            "p",
            ProcessParameters("other"),
            (
                Layer("L1", 1, (Track("T0", rows, True), Track("T1", rows[::-1], False))),
                Layer("L0", 0, (Track("T0", rows[:2], True),)),
            ),
        )
        # everything at point depth, listed order, but the ToolActive attributes
        lines = [line for line in write_xml(doc).decode().splitlines()
                 if line.startswith(" " * 10) and "ToolActive" not in line]
        tracks = [t.points for layer in doc.layers for t in layer.tracks]
        assert lines == "\n".join(oracles.pathml_points(pts) for pts in tracks).splitlines()

    @pytest.mark.parametrize("doc", [d for _, d in shared_column_docs()],
                             ids=[name for name, _ in shared_column_docs()])
    def test_documents_with_shared_columns_match_per_row_format(self, doc):
        attrs = [("ProcessType", "other"), ("LayerHeight_mm", "2.000000")]
        assert write_xml(doc) == oracles.pathml_xml(doc.project_name, attrs, plain_layers(doc))

    def test_tracks_of_zero_and_one_row_match_per_row_format(self):
        rows = np.array(self.EDGE_ROWS)
        tracks = [rows[:0], rows[:1], rows, rows[:1], rows[:0], rows[::-1], rows[1:2]]
        assert list(_points_xml(tracks)) == [oracles.pathml_points(t) for t in tracks]

    @pytest.mark.parametrize("doc", [d for _, d in shared_column_docs()],
                             ids=[name for name, _ in shared_column_docs()])
    def test_chunks_are_the_document_a_track_at_a_time(self, doc):
        chunks = list(xml_chunks(doc))
        attrs = [("ProcessType", "other"), ("LayerHeight_mm", "2.000000")]
        assert b"".join(chunks) == oracles.pathml_xml(doc.project_name, attrs, plain_layers(doc))
        tracks = [t.points for layer in doc.layers for t in layer.tracks]
        assert chunks[1::2] == [oracles.pathml_points(points).encode() for points in tracks]
        assert len(chunks) == 2 * len(tracks) + 1

    def test_chunks_refuse_an_invalid_document_before_the_first(self):
        with pytest.raises(ValidationError, match="velocity must be >= 0"):
            xml_chunks(make_doc(velocity=-1.0))

    def test_special_characters_escaped(self):
        doc = make_doc(project='a<b>&"c\'')
        text = write_xml(doc).decode()
        assert "a<b>" not in text
        back = parse_xml(write_xml(doc))
        assert back.project_name == 'a<b>&"c\''


class TestParse:
    def test_round_trip_equality(self):
        doc = make_doc(
            process=ProcessParameters(
                "welding", wire_feed_rate=7.5, layer_height=1.25, extra={"Gas": "argon"}
            )
        )
        assert parse_xml(write_xml(doc)) == doc

    def test_multi_layer_round_trip(self):
        base = make_doc()
        t = base.layers[0].tracks[0]
        doc = PathMLDocument(
            "p",
            base.process,
            (
                Layer("base", 0, (t, Track("Track_1", t.points, False))),
                Layer("cap", 3, (t,)),
            ),
        )
        back = parse_xml(write_xml(doc))
        assert back == doc
        assert back.layers[1].index == 3
        assert back.layers[0].tracks[1].tool_active is False

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_xml(b"<CAEXFile>\n  <broken\n</CAEXFile>")
        assert exc.value.line is not None

    def test_missing_index_uses_ordinal(self):
        text = write_xml(make_doc()).decode()
        text = text.replace('<Attribute Name="Index"><Value>0</Value></Attribute>', "")
        doc = parse_xml(text.encode())
        assert doc.layers[0].index == 0

    def test_one_point_track_parses_validate_flags(self):
        base = write_xml(make_doc(xs=(0.0, 10.0))).decode()
        start = base.index('<InternalElement Name="Point_1"')
        stop = start + base[start:].index("</InternalElement>") + len("</InternalElement>\n")
        # drop the second point element entirely; structure stays well formed
        doc = parse_xml((base[:start].rstrip(" ") + base[stop:].lstrip("\n")).encode())
        assert len(doc.layers[0].tracks[0].points) == 1
        assert any("at least 2" in v.detail for v in validate_document(doc))

    def test_schema_errors(self):
        good = write_xml(make_doc()).decode()

        def mutate(old, new):
            assert old in good
            return good.replace(old, new).encode()

        cases = [
            mutate("CAEXFile", "RootFile"),
            mutate(' FileName="part.aml"', ""),
            mutate('Name="PathML"', 'Name="Paths"'),
            mutate('<Attribute Name="X_mm"><Value>0.000000</Value></Attribute>', ""),
            mutate("<Value>0.000000</Value>", ""),
            mutate("<Value>0.000000</Value>", "<Value>zero</Value>"),
            mutate('<Attribute Name="ToolActive"><Value>true</Value></Attribute>', ""),
            mutate("<Value>true</Value>", "<Value>maybe</Value>"),
            mutate('Name="Index"><Value>0</Value>', 'Name="Index"><Value>two</Value>'),
            mutate('Name="Velocity_mm_s"', 'Name="Speed"'),
        ]
        for data in cases:
            with pytest.raises((SchemaError, ParseError)):
                parse_xml(data)

    def test_point_attribute_on_track_rejected(self):
        good = write_xml(make_doc()).decode()
        needle = '<InternalElement Name="Point_0">'
        inject = '<Attribute Name="X_mm"><Value>1.000000</Value></Attribute>\n          '
        text = good.replace(needle, inject + needle, 1)
        with pytest.raises(SchemaError, match="X_mm"):
            parse_xml(text.encode())

    @pytest.mark.parametrize(
        "level, needle",
        [
            ("project", '<Attribute Name="ProcessType">'),
            ("layer", '<Attribute Name="Index">'),
            ("track", '<Attribute Name="ToolActive">'),
        ],
    )
    def test_point_attribute_at_each_level_rejected(self, level, needle):
        good = write_xml(make_doc()).decode()
        text = good.replace(needle, '<Attribute Name="X_mm"><Value>1.000000</Value></Attribute>' + needle, 1)
        with pytest.raises(SchemaError, match=f"point attribute 'X_mm' at {level} level"):
            parse_xml(text.encode())

    def test_two_hierarchies_rejected(self):
        good = write_xml(make_doc()).decode()
        start = good.index("  <InstanceHierarchy")
        end = good.index("</InstanceHierarchy>") + len("</InstanceHierarchy>")
        block = good[start:end] + "\n" + good[start:end]
        text = good[:start] + block + good[end:]
        with pytest.raises(SchemaError):
            parse_xml(text.encode())

    def test_duplicate_attribute_names_rejected(self):
        good = write_xml(make_doc()).decode()
        dup = '<Attribute Name="ProcessType"><Value>other</Value></Attribute>'
        text = good.replace(dup, dup + dup, 1)
        with pytest.raises(SchemaError, match="duplicate"):
            parse_xml(text.encode())

    def test_rejects_bytesless_garbage(self):
        with pytest.raises(ParseError):
            parse_xml(b"not xml at all")


class TestExpand:
    def _doc(self):
        return make_doc(process=ProcessParameters("adhesive", glue_flow_rate=5.0, layer_height=2.0))

    def test_offsets_along_direction(self):
        doc = self._doc()
        out = expand_layers(doc, 4, (0.0, 0.0, 1.0))
        assert len(out.layers) == 4
        base = doc.layers[0].tracks[0].points[:, :3]
        for k, layer in enumerate(out.layers):
            got = layer.tracks[0].points[:, :3]
            order = base[::-1] if k % 2 else base  # the base is open: odd layers run backwards
            assert np.max(np.abs(got - (order + np.array([0, 0, 2.0 * k])))) < 1e-12
            assert layer.index == k

    def _two_tracks(self, last_x):
        a = [(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 50.0), (10.0, 0.0, 0.0, 0.0, 0.0, 5.0, 60.0),
             (10.0, 2.0, 0.0, 0.0, 0.0, 5.0, 65.0)]
        b = [(10.0, 5.0, 0.0, 0.0, 0.0, 10.0, 70.0), (last_x, 0.0, 0.0, 0.0, 0.0, 15.0, 80.0)]
        base = Layer("Layer_0", 0, (Track("a", a, True), Track("b", b, False)))
        return PathMLDocument("p", self._doc().process, (base,))

    def test_open_base_runs_backwards_on_odd_layers(self):
        doc = self._two_tracks(last_x=20.0)
        a, b = doc.layers[0].tracks
        out = expand_layers(doc, 3, (0.0, 0.0, 1.0))
        lift = lambda k: np.array([0.0, 0.0, 2.0 * k, 0.0, 0.0, 0.0, 0.0])  # noqa: E731
        # backwards, a point is reached at the forward speed into the point after it
        a_back = [(10.0, 2.0, 2.0, 0.0, 0.0, 5.0, 50.0), (10.0, 0.0, 2.0, 0.0, 0.0, 5.0, 65.0),
                  (0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 60.0)]
        b_back = [(20.0, 0.0, 2.0, 0.0, 0.0, 15.0, 70.0), (10.0, 5.0, 2.0, 0.0, 0.0, 10.0, 80.0)]
        assert out.layers[1].tracks == (Track("b", b_back, False), Track("a", a_back, True))
        assert out.layers[2].tracks == (Track("a", a.points + lift(2), True), Track("b", b.points + lift(2), False))

    def test_closed_base_keeps_its_direction(self):
        doc = self._two_tracks(last_x=0.0)  # ends where it starts
        out = expand_layers(doc, 3, (0.0, 0.0, 1.0))
        for k, layer in enumerate(out.layers):
            assert [t.name for t in layer.tracks] == ["a", "b"]
            for got, src in zip(layer.tracks, doc.layers[0].tracks):
                assert np.array_equal(got.points[:, 3:], src.points[:, 3:])
                assert np.array_equal(got.points[:, :3], src.points[:, :3] + [0.0, 0.0, 2.0 * k])

    def test_oblique_direction(self):
        doc = self._doc()
        d = np.array([1.0, 2.0, 2.0]) / 3.0
        out = expand_layers(doc, 3, tuple(d))
        p0 = doc.layers[0].tracks[0].points[0, :3]
        p2 = out.layers[2].tracks[0].points[0, :3]
        assert np.max(np.abs(p2 - (p0 + 2 * 2.0 * d))) < 1e-12

    def test_numbered_names_continue_pattern(self):
        out = expand_layers(self._doc(), 3, (0, 0, 1))
        assert [l.name for l in out.layers] == ["Layer_0", "Layer_1", "Layer_2"]

    def test_unnumbered_name_gets_suffix(self):
        base = self._doc()
        doc = PathMLDocument(base.project_name, base.process, (Layer("seam", 0, base.layers[0].tracks),))
        out = expand_layers(doc, 3, (0, 0, 1))
        assert [l.name for l in out.layers] == ["seam_0", "seam_1", "seam_2"]

    def test_orientation_speed_and_tool_preserved(self):
        out = expand_layers(self._doc(), 2, (0, 0, 1))
        src = self._doc().layers[0].tracks[0]
        dst = out.layers[1].tracks[0]
        assert dst.tool_active == src.tool_active
        assert np.array_equal(src.points[:, 3:], dst.points[:, 3:])

    def test_single_copy_unchanged(self):
        doc = self._doc()
        assert expand_layers(doc, 1, (0, 0, 1)) == doc

    def test_result_still_validates_and_writes(self):
        out = expand_layers(self._doc(), 5, (0, 0, 1))
        assert validate_document(out) == []
        assert parse_xml(write_xml(out)) == out

    def test_errors(self):
        doc = self._doc()
        with pytest.raises(ValueError):
            expand_layers(doc, 0, (0, 0, 1))
        with pytest.raises(ValueError, match="unit"):
            expand_layers(doc, 2, (0, 0, 2.0))
        with pytest.raises(ValueError):
            expand_layers(doc, 2, (0.0, 0.0, 0.0))
        no_height = make_doc(process=ProcessParameters("other"))
        with pytest.raises(ValueError, match="LayerHeight_mm"):
            expand_layers(no_height, 2, (0, 0, 1))
        two = PathMLDocument(doc.project_name, doc.process, (doc.layers[0], Layer("b", 1, doc.layers[0].tracks)))
        with pytest.raises(ValueError, match="single-layer"):
            expand_layers(two, 2, (0, 0, 1))

    def test_refuses_more_than_max_points(self):
        # 10**12 layers of 3 points would be 24 TB of coordinates
        with pytest.raises(ValueError, match="the limit is 1000000"):
            expand_layers(self._doc(), 10**12, (0, 0, 1))


def same_document(a, b):
    """Equal documents whose numbers are also equal bit for bit (so NaN matches NaN)."""
    def key(doc):
        return doc.project_name, repr(doc.process), [
            (layer.name, layer.index, [(t.name, t.tool_active, t.points.tobytes()) for t in layer.tracks])
            for layer in doc.layers
        ]

    return key(a) == key(b)


def outcome(parse, data):
    """The parsed document, or the type and message of the exception raised."""
    try:
        return parse(data)
    except Exception as e:
        return type(e), str(e)


def plain(doc):
    """``doc`` with every character the scanner leaves to the tree parser replaced by '_'."""
    def fix(text):
        return re.sub('[&<>"\t\n]', "_", text)

    p = doc.process
    process = ProcessParameters(p.process_type, p.glue_flow_rate, p.wire_feed_rate, p.layer_height,
                                tuple((fix(k), fix(v)) for k, v in p.extra))
    layers = tuple(
        Layer(fix(layer.name), layer.index,
              tuple(Track(fix(t.name), t.points, t.tool_active) for t in layer.tracks))
        for layer in doc.layers
    )
    return PathMLDocument(fix(doc.project_name), process, layers)


MUTATION_BASE = PathMLDocument(
    "cell 7",
    ProcessParameters("adhesive", glue_flow_rate=12.5, layer_height=2.0,
                      extra=(("Nozzle", "N-2 é"), ("Note", ""))),
    (
        Layer("Layer_0", 0, (
            Track("Track_0", [(0.0, -1.5, 20.25, 0.0, 90.0, -179.999999, 50.0),
                              (10.0, -1.5, 20.25, 0.5, 90.0, 180.0, 50.0)], True),
            Track("Track_1", [(10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)] * 2, False),
        )),
        Layer("Layer_1", 1, (Track("Track_0", [(1e6, -2e6, 3.000001, 1.0, 2.0, 3.0, 4.0)] * 2, True),)),
    ),
)


_PROCESS_TYPE_LINE = '      <Attribute Name="ProcessType"><Value>adhesive</Value></Attribute>\n'

# Edits of MUTATION_BASE's canonical bytes that keep the writer's layout and
# break, or stretch, a content rule: (id, old, new), applied once.
CONTENT_RULE_EDITS = [
    ("unknown_process_type", ">adhesive<", ">glue<"),
    ("process_number_x", ">12.500000<", ">x<"),
    ("process_number_spaced_exponent", ">12.500000<", "> 1e3 <"),
    ("index_negative", '"Index"><Value>0<', '"Index"><Value>-1<'),
    ("index_22_digits", '"Index"><Value>1<', '"Index"><Value>' + "9" * 22 + "<"),
    ("index_word", '"Index"><Value>1<', '"Index"><Value>one<'),
    ("tool_active_upper_case", '"ToolActive"><Value>true<', '"ToolActive"><Value>TRUE<'),
    ("tool_active_yes", '"ToolActive"><Value>false<', '"ToolActive"><Value>yes<'),
    ("point_attribute_at_project_level", _PROCESS_TYPE_LINE,
     _PROCESS_TYPE_LINE + '      <Attribute Name="X_mm"><Value>1.000000</Value></Attribute>\n'),
    ("repeated_extra_name", '"Note"', '"Nozzle"'),
]


def mutations(data: bytes, rng: random.Random):
    """Seeded variants of canonical PathML ``data``, most of them off the writer's layout."""
    text = data.decode()
    digits = [m.start() for m in re.finditer("[0-9]", text)]
    values = list(re.finditer("<Value>([^<]*)</Value>", text))
    attrs = [m.start() for m in re.finditer("(?m)^ *<Attribute", text)]
    process_end = text.index("\n", text.index('"ProcessType"')) + 1
    for _ in range(60):
        k = rng.randrange(len(data))
        yield data[:k] + data[k + 1:]
    for char in ["&", "<", ">", '"', "'", "\r", "\t", "\x00", "\ufffe", "é", "\x85", "\U0001f600"]:
        for name in ["cell 7", "Nozzle", "N-2 é", "Layer_1", "Track_1", "12.500000"]:
            yield text.replace(name, name[:2] + char + name[2:]).encode()
        for k in rng.sample(range(len(text)), 3):
            yield (text[:k] + char + text[k:]).encode()
    for k in rng.sample(digits, 40):
        yield (text[:k] + rng.choice("0123456789".replace(text[k], "")) + text[k + 1:]).encode()
    for m in rng.sample(values, 20):
        yield (text[:m.start(1)] + "nan" + text[m.end(1):]).encode()
    for k in rng.sample(attrs, 20):  # swap an Attribute line with the line after it
        first_end = text.index("\n", k) + 1
        second_end = text.index("\n", first_end) + 1
        yield (text[:k] + text[first_end:second_end] + text[k:first_end] + text[second_end:]).encode()
    for name in (*POINT_ATTRS, "ProcessType", "GlueFlowRate_ml_min", "Nozzle", "Index", "ToolActive"):
        line = f'      <Attribute Name="{name}"><Value>1.000000</Value></Attribute>\n'
        yield (text[:process_end] + line + text[process_end:]).encode()
    yield data.replace(b"\n", b"\r\n")
    yield b"\xef\xbb\xbf" + data
    yield data.replace("é".encode(), b"\xe9")  # Latin-1, not UTF-8
    for _, old, new in CONTENT_RULE_EDITS:
        yield text.replace(old, new, 1).encode()
    # the edges of a track's body: its closing line, the lines between point blocks
    for m in re.finditer("(?m)^        </InternalElement>\n", text):
        head, line, rest = text[:m.start()], m[0], text[m.end():]
        yield (head + rest).encode()
        yield (head + "  " + line + rest).encode()
        yield (head + line + line + rest).encode()
    for m in re.finditer("(?m)^          </InternalElement>\n(?=          <)", text):
        yield (text[:m.end()] + "\n" + text[m.end():]).encode()
    for m in re.finditer("(?m)^            <Attribute.*\n", text):
        yield (text[:m.start()] + text[m.end():]).encode()
    # bytes a strict UTF-8 decoder refuses, an overlong "/" and an encoded
    # surrogate, in names; a NUL inside a point number
    for bad in (b"\xc0\xaf", b"\xed\xa0\x80"):
        yield data.replace(b"cell 7", b"ce" + bad + b"ll 7")
        yield data.replace(b"Track_1", b"Tr" + bad + b"ack_1")
    yield data.replace(b"<Value>20.250000<", b"<Value>20.25\x000000<", 1)


class TestScanner:
    def test_reads_writer_output_like_the_tree_parser(self):
        rng = np.random.default_rng(707)
        for i in range(100):
            doc = _random_grid_doc(rng)
            for d in (doc, plain(doc)):
                data = write_xml(d)
                got = _scan_canonical(data)
                assert (got is not None) == (d == plain(d)), f"document {i}"
                assert got is None or same_document(got, _parse_tree(data)), f"document {i}"
                assert same_document(parse_xml(data), d)

    def test_mutated_input_reads_as_with_the_tree_parser(self):
        rng = random.Random(17)
        scanned = 0
        for data in mutations(write_xml(MUTATION_BASE), rng):
            # as text too: undecodable bytes become lone surrogates, which UTF-8 cannot encode
            for given in (data, data.decode("utf-8", "surrogateescape")):
                got, want = outcome(parse_xml, given), outcome(_parse_tree, given)
                if isinstance(want, PathMLDocument):
                    assert isinstance(got, PathMLDocument) and same_document(got, want), given
                else:
                    assert got == want, given
            scanned += outcome(_scan_canonical, data) is not None  # a document or the scanner's own error
        assert scanned >= 40  # the changed digits and the names that stay plain

    def test_an_empty_track_is_read_without_the_tree_parser(self, monkeypatch):
        text = write_xml(MUTATION_BASE).decode()
        blocks = re.compile('(?s)          <InternalElement Name="Point_.*?          </InternalElement>\n')
        track_1 = text.index('"Track_1"')
        empty = text[:track_1] + blocks.sub("", text[track_1:], count=2)
        want = _parse_tree(empty)
        assert [len(t.points) for layer in want.layers for t in layer.tracks] == [2, 0, 2]
        monkeypatch.setattr(pathml, "_parse_tree", lambda data: pytest.fail("the scanner declined an empty track"))
        for given in (empty, empty.encode()):
            assert same_document(parse_xml(given), want)

    @pytest.mark.parametrize("old, new", [edit[1:] for edit in CONTENT_RULE_EDITS],
                             ids=[edit[0] for edit in CONTENT_RULE_EDITS])
    def test_content_rules_apply_without_the_tree_parser(self, monkeypatch, old, new):
        text = write_xml(MUTATION_BASE).decode()
        edited = text.replace(old, new, 1)
        assert edited != text
        want = outcome(_parse_tree, edited)

        def no_tree(data):
            pytest.fail("the scanner declined input in the writer's layout")

        monkeypatch.setattr(pathml, "_parse_tree", no_tree)
        for given in (edited, edited.encode()):
            got = outcome(parse_xml, given)
            if isinstance(want, PathMLDocument):
                assert isinstance(got, PathMLDocument) and same_document(got, want)
            else:
                assert got == want and want[0] is SchemaError
        if new == "> 1e3 <":
            assert got.process.glue_flow_rate == 1000.0


grid_floats = st.integers(-10 ** 12, 10 ** 12).map(lambda n: n / 1e6)
name_chars = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    min_size=1,
    max_size=12,
)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(grid_floats, min_size=14, max_size=14),
    name_chars,
    st.booleans(),
)
def test_round_trip_property(values, project, tool_active):
    pts = [(*values[:6], abs(values[6])), (*values[7:13], abs(values[13]))]
    doc = PathMLDocument(
        project,
        ProcessParameters("other", extra={"note": project}),
        (Layer("Layer_0", 0, (Track("Track_0", pts, tool_active),)),),
    )
    data = write_xml(doc)
    assert parse_xml(data) == doc
    assert write_xml(parse_xml(data)) == data
    scanned = _scan_canonical(data)
    assert (scanned is not None) == (doc == plain(doc))
    assert scanned is None or same_document(scanned, _parse_tree(data))


ESCAPE_ALPHABET = "a\"'&<>\n\r\t é]"


def saxutils_escape(text):
    return saxutils.escape(text, {"\r": "&#13;"})


class TestEscaping:
    """The writer's escaping is byte for byte the one xml.sax.saxutils writes."""

    def test_short_strings_match_saxutils(self):
        for size in range(6):
            for chars in itertools.product(ESCAPE_ALPHABET, repeat=size):
                text = "".join(chars)
                assert _escape(text) == saxutils_escape(text), text
                assert _quoteattr(text) == saxutils.quoteattr(text), text

    @settings(deadline=None)
    @given(st.text())
    def test_any_text_matches_saxutils(self, text):
        assert _escape(text) == saxutils_escape(text)
        assert _quoteattr(text) == saxutils.quoteattr(text)

    QUOTED = PathMLDocument(
        "cell \"7\" & 'weld' <é>",
        ProcessParameters("welding", wire_feed_rate=8.0,
                          extra=(("tip'n", 'x"y\r\n\tz & <ü>'), ('n"o\tte\n', "it's"))),
        (Layer("Layer\r_0", 0, (Track("Track'0", [(0.0, 1.5, -2.0, 0.0, 90.0, 180.0, 5.0),
                                                  (10.0, 1.5, -2.0, 0.0, 90.0, 180.0, 5.0)], True),)),),
    )
    # as the writer wrote it while it called xml.sax.saxutils
    QUOTED_XML = "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<CAEXFile FileName=\"cell &quot;7&quot; &amp; 'weld' &lt;é&gt;.aml\">",
        '  <InstanceHierarchy Name="PathML">',
        "    <InternalElement Name=\"cell &quot;7&quot; &amp; 'weld' &lt;é&gt;\">",
        '      <Attribute Name="ProcessType"><Value>welding</Value></Attribute>',
        '      <Attribute Name="WireFeedRate_mm_s"><Value>8.000000</Value></Attribute>',
        '      <Attribute Name="tip\'n"><Value>x"y&#13;',
        "\tz &amp; &lt;ü&gt;</Value></Attribute>",
        "      <Attribute Name='n\"o&#9;te&#10;'><Value>it's</Value></Attribute>",
        '      <InternalElement Name="Layer&#13;_0">',
        '        <Attribute Name="Index"><Value>0</Value></Attribute>',
        "        <InternalElement Name=\"Track'0\">",
        '          <Attribute Name="ToolActive"><Value>true</Value></Attribute>',
        *[line
          for k, x in enumerate(("0.000000", "10.000000"))
          for line in (
              f'          <InternalElement Name="Point_{k}">',
              f'            <Attribute Name="X_mm"><Value>{x}</Value></Attribute>',
              '            <Attribute Name="Y_mm"><Value>1.500000</Value></Attribute>',
              '            <Attribute Name="Z_mm"><Value>-2.000000</Value></Attribute>',
              '            <Attribute Name="RX_deg"><Value>0.000000</Value></Attribute>',
              '            <Attribute Name="RY_deg"><Value>90.000000</Value></Attribute>',
              '            <Attribute Name="RZ_deg"><Value>180.000000</Value></Attribute>',
              '            <Attribute Name="Velocity_mm_s"><Value>5.000000</Value></Attribute>',
              "          </InternalElement>",
          )],
        "        </InternalElement>",
        "      </InternalElement>",
        "    </InternalElement>",
        "  </InstanceHierarchy>",
        "</CAEXFile>",
        "",
    ]).encode("utf-8")

    def test_quoted_names_keep_their_bytes_and_read_back(self):
        assert write_xml(self.QUOTED) == self.QUOTED_XML
        assert parse_xml(self.QUOTED_XML) == self.QUOTED

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.text(alphabet=ESCAPE_ALPHABET, min_size=1, max_size=8), min_size=5, max_size=5, unique=True))
    def test_any_escaped_names_round_trip(self, names):
        project, layer, track, key, value = names
        doc = PathMLDocument(
            project,
            ProcessParameters("other", extra=((key, value),)),
            (Layer(layer, 0, (Track(track, [(0.0,) * 7, (1.0,) * 7], True),)),),
        )
        assert parse_xml(write_xml(doc)) == doc
