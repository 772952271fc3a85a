import contextlib
import io
import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pathfuse
from conftest import child_env, traced_peak
from pathfuse import (
    Frame,
    FusedPath,
    Layer,
    PathMLDocument,
    ProcessParameters,
    Track,
    fused_path_to_json,
    parse_xml,
    write_xml,
)
from pathfuse.cli import main
from pathfuse.demo import MAX_FILTER_WINDOW
from pathfuse.pathml import PROCESS_NUMBERS

CAD_CSV = "x_mm,y_mm,z_mm\n0,0,0\n100,0,0\n200,0,0\n300,0,0\n400,0,0\n"

CALIB = {
    "t_r_f": {"translation_mm": [10.0, 20.0, 30.0], "rotation_deg_fixed_xyz": [0.0, 0.0, 90.0]},
    "t_f_s": {"translation_mm": [1.0, 2.0, 3.0], "rotation_deg_fixed_xyz": [0.0, 0.0, 0.0]},
}

CONFIG = {
    "filter": {"window": 11, "k": 3.0},
    "resample_spacing_mm": 25.0,
    "limits": {"max_step_mm": 50.0, "max_orient_step_deg": 30.0},
    "tolerance_mm": 4.0,
}


def truth_json():
    n = 5
    pos = np.column_stack([np.linspace(0.0, 400.0, n), np.zeros(n), np.zeros(n)])
    ang = np.column_stack([np.zeros(n), np.zeros(n), np.linspace(0.0, np.pi / 2, n)])
    path = FusedPath(pos, ang, np.full(n, 100.0), Frame.S)
    return fused_path_to_json(path)


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "truth.json").write_text(truth_json())
    (tmp_path / "cad.csv").write_text(CAD_CSV)
    (tmp_path / "calib.json").write_text(json.dumps(CALIB))
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    return tmp_path


def run_chain(ws, suffix=""):
    """synth -> fuse -> gen -> expand -> emit -> report; returns artifact paths."""
    t, cad, calib, cfg = (str(ws / f) for f in ("truth.json", "cad.csv", "calib.json", "config.json"))
    demo = str(ws / f"demo{suffix}.csv")
    fused = str(ws / f"fused{suffix}.json")
    doc = str(ws / f"doc{suffix}.aml")
    stack = str(ws / f"stack{suffix}.aml")
    prog = str(ws / f"prog{suffix}.txt")
    rep = str(ws / f"report{suffix}.json")

    assert main(["synth", "--truth", t, "--rate", "100", "--z-bias-max", "20",
                 "--xy-noise", "0.5", "--seed", "7", "-o", demo]) == 0
    assert main(["fuse", "--cad", cad, "--demo", demo, "--calib", calib,
                 "--config", cfg, "-o", fused]) == 0
    assert main(["pathml", "gen", "--fused", fused, "--project", "part",
                 "--process-type", "adhesive", "--glue-flow-rate", "12",
                 "--layer-height", "2", "-o", doc]) == 0
    assert main(["pathml", "validate", doc]) == 0
    assert main(["pathml", "expand", doc, "--layers", "3", "-o", stack]) == 0
    assert main(["emit", stack, "--config", cfg, "-o", prog]) == 0
    assert main(["report", "--executed", fused, "--nominal", fused,
                 "--sections", "0.25,0.5", "-o", rep]) == 0
    return demo, fused, doc, stack, prog, rep


class TestChain:
    def test_full_chain_runs_clean(self, ws):
        demo, fused, doc, stack, prog, rep = run_chain(ws)
        text = (ws / "prog.txt").read_text()
        assert text.count("# layer:") == 3
        assert "MOVEL" in text and "SET_IO TOOL 1" in text
        report = json.loads((ws / "report.json").read_text())
        assert report["within_tolerance"] is True
        assert len(report["sections"]) == 3
        parsed = parse_xml((ws / "stack.aml").read_bytes())
        assert len(parsed.layers) == 3

    def test_chain_is_deterministic(self, ws):
        a = run_chain(ws, "_a")
        b = run_chain(ws, "_b")
        for pa, pb in zip(a, b):
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                assert fa.read() == fb.read()

    def test_fused_positions_follow_cad_through_calibration(self, ws):
        run_chain(ws)
        fused = json.loads((ws / "fused.json").read_text())
        assert fused["frame"] == "R"
        # first CAD point (0,0,0) in S: -> F adds (1,2,3), -> R rotates 90 deg
        # about z then adds (10,20,30)
        p0 = fused["points"][0]
        assert abs(p0["x_mm"] - (10.0 - 2.0)) < 1e-6
        assert abs(p0["y_mm"] - (20.0 + 1.0)) < 1e-6
        assert abs(p0["z_mm"] - 33.0) < 1e-6


class TestOutputs:
    def test_stdout_default(self, ws, capsys):
        assert main(["synth", "--truth", str(ws / "truth.json"), "--rate", "50"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg")

    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_stdout_holds_the_output_bytes_whatever_the_locale_encoding(self, ws, encoding):
        run_chain(ws)
        f = lambda name: str(ws / name)  # noqa: E731
        commands = [
            ["pathml", "gen", "--fused", f("fused.json"), "--project", "café", "--process-type", "other",
             "--layer-height", "2", "--extra", "Düse=N-2 é"],
            ["emit", f("café.aml"), "--config", f("config.json")],
            ["fuse", "--cad", f("cad.csv"), "--demo", f("demo.csv"), "--calib", f("calib.json"),
             "--config", f("config.json")],
            ["pathml", "expand", f("café.aml"), "--layers", "4"],
        ]
        env = {**child_env(), "PYTHONIOENCODING": encoding}
        for argv, out in zip(commands, ["café.aml", "café.txt", "fused_again.json", "café_stack.aml"]):
            assert main(argv + ["-o", f(out)]) == 0
            proc = subprocess.run([sys.executable, "-m", "pathfuse", *argv], env=env, capture_output=True)
            assert (proc.returncode, proc.stderr) == (0, b""), argv
            assert proc.stdout == (ws / out).read_bytes(), argv
        assert "é" in (ws / "café.txt").read_text()

    def test_stdout_without_a_byte_layer_takes_the_text(self, ws):
        run_chain(ws)
        for argv in (["synth", "--truth", str(ws / "truth.json"), "--rate", "50"],
                     ["pathml", "expand", str(ws / "doc.aml"), "--layers", "4"]):
            assert main(argv + ["-o", str(ws / "out")]) == 0
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                assert main(argv) == 0
            assert sink.getvalue() == (ws / "out").read_text(encoding="utf-8"), argv

    def test_validate_prints_violations_to_stdout(self, ws, capsys):
        run_chain(ws)
        text = (ws / "doc.aml").read_text()
        broken = text.replace(
            '<Attribute Name="GlueFlowRate_ml_min"><Value>12.000000</Value></Attribute>', ""
        )
        assert broken != text
        (ws / "broken.aml").write_text(broken)
        assert main(["pathml", "validate", str(ws / "broken.aml")]) == 1
        captured = capsys.readouterr()
        assert "GlueFlowRate" in captured.out
        assert captured.err == ""

    def test_emit_routes_limit_violations_to_stderr(self, ws, capsys):
        run_chain(ws)
        tight = dict(CONFIG, limits={"max_step_mm": 5.0})
        (ws / "tight.json").write_text(json.dumps(tight))
        code = main(["emit", str(ws / "doc.aml"), "--config", str(ws / "tight.json"),
                     "-o", str(ws / "never.txt")])
        assert code == 1
        captured = capsys.readouterr()
        assert "step" in captured.err
        assert not (ws / "never.txt").exists()

    def test_fuse_notes_the_time_fallback_once_even_with_warnings_as_errors(self, ws):
        # a capture that holds still is matched to CAD by time: one stderr note, no warning
        rows = "".join(f"{0.01 * i:.2f},5,5,5,10,0,0\n" for i in range(60))
        (ws / "still.csv").write_text("t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg\n" + rows)
        assert main(["synth", "--truth", str(ws / "truth.json"), "--rate", "100", "-o", str(ws / "demo.csv")]) == 0
        plain = child_env()
        plain.pop("PYTHONWARNINGS", None)
        strict = {**plain, "PYTHONWARNINGS": "error"}
        note = b"note: the demonstration travels under 1 mm; matched to CAD by normalized time\n"
        for capture, err in (("still.csv", note), ("demo.csv", b"")):
            outs = []
            for env in (plain, strict):
                out = ws / f"fused{len(outs)}.json"
                argv = ["fuse", "--cad", str(ws / "cad.csv"), "--demo", str(ws / capture),
                        "--calib", str(ws / "calib.json"), "-o", str(out)]
                proc = subprocess.run([sys.executable, "-m", "pathfuse", *argv], env=env, capture_output=True)
                assert (proc.returncode, proc.stderr) == (0, err), capture
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], capture

    def test_report_out_of_tolerance_still_writes(self, ws, capsys):
        run_chain(ws)
        fused = json.loads((ws / "fused.json").read_text())
        for p in fused["points"]:
            p["z_mm"] += 5.0
        (ws / "shifted.json").write_text(json.dumps(fused))
        code = main(["report", "--executed", str(ws / "shifted.json"),
                     "--nominal", str(ws / "fused.json"), "-o", str(ws / "bad.json")])
        assert code == 1
        rep = json.loads((ws / "bad.json").read_text())
        assert rep["within_tolerance"] is False
        assert abs(rep["overall_max_mm"] - 5.0) < 1e-6

    def test_report_tolerance_flag_overrides_config(self, ws):
        run_chain(ws)
        fused = json.loads((ws / "fused.json").read_text())
        for p in fused["points"]:
            p["z_mm"] += 5.0
        (ws / "shifted.json").write_text(json.dumps(fused))
        args = ["report", "--executed", str(ws / "shifted.json"),
                "--nominal", str(ws / "fused.json"), "--config", str(ws / "config.json"),
                "-o", str(ws / "r.json")]
        assert main(args + ["--tolerance", "6"]) == 0
        assert main(args) == 1


@pytest.fixture
def big_part(tmp_path):
    """A single-layer document of 1,000 points, which 6 layers make a 3.6 MB stack."""
    rng = np.random.default_rng(21)
    points = np.round(rng.uniform(-500.0, 500.0, (1000, 7)), 6)
    points[:, 6] = np.abs(points[:, 6])
    doc = PathMLDocument("big", ProcessParameters("adhesive", glue_flow_rate=12.0, layer_height=2.0),
                         (Layer("Layer_0", 0, (Track("Track_0", points, True),)),))
    (tmp_path / "part.aml").write_bytes(write_xml(doc))
    return tmp_path / "part.aml"


class TestStreamedWriter:
    """gen and expand write the document a track at a time, after checking it."""

    # tracemalloc peaks over the 3.6 MB stack, measured with Python 3.11 and
    # numpy 2.4: 0.91 of its size for expand and 0.40 for parse_xml.  A writer
    # that holds its output as text, joined and encoded, reads 3.11, and a
    # scanner that decodes its input 1.35.
    def test_expand_holds_no_whole_copy_of_its_output(self, big_part):
        out = big_part.with_name("stack.aml")
        argv = ["pathml", "expand", str(big_part), "--layers", "6", "-o", str(out)]
        assert main(argv) == 0  # loads what a first call loads
        peak, code = traced_peak(lambda: main(argv))
        assert code == 0
        size = out.stat().st_size
        assert size > 3_500_000
        assert peak < 1.25 * size, f"peak {peak} for a {size}-byte stack"

    def test_parse_holds_no_copy_of_its_input(self, big_part):
        out = big_part.with_name("stack.aml")
        assert main(["pathml", "expand", str(big_part), "--layers", "6", "-o", str(out)]) == 0
        data = out.read_bytes()
        peak, doc = traced_peak(lambda: parse_xml(data))
        assert sum(len(t.points) for layer in doc.layers for t in layer.tracks) == 6000
        assert peak < 1.0 * len(data), f"peak {peak} for a {len(data)}-byte stack"

    def test_a_refused_document_writes_nothing(self, ws, capsys):
        run_chain(ws)
        bad = (ws / "doc.aml").read_text().replace(
            '"Velocity_mm_s"><Value>', '"Velocity_mm_s"><Value>-', 1)
        (ws / "bad.aml").write_text(bad)
        (ws / "kept.aml").write_bytes(b"earlier output\n")
        gen = ["pathml", "gen", "--fused", str(ws / "fused.json"), "--project", "p", "--process-type", "adhesive"]
        expand = ["pathml", "expand", str(ws / "bad.aml"), "--layers", "2"]
        for argv, message in ((gen, "adhesive requires GlueFlowRate_ml_min"), (expand, "velocity must be >= 0")):
            for out in ("new.aml", "kept.aml"):
                assert main(argv + ["-o", str(ws / out)]) == 2, argv
                assert message in capsys.readouterr().err
            assert not (ws / "new.aml").exists()
            assert (ws / "kept.aml").read_bytes() == b"earlier output\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--extra", "Velocity_mm_s=3", "extra key 'Velocity_mm_s' collides with a reserved attribute"),
            # a byte that is not UTF-8 reaches Python's argv as a lone surrogate
            ("--extra", b"note=\xff".decode("utf-8", "surrogateescape"), "extra '\\udcff' holds a character"),
            ("--extra", "a\x01b=1", "extra 'a\\x01b' holds a character XML 1.0 cannot carry"),
            ("--project", "a\x01b", "project name 'a\\x01b' holds a character XML 1.0 cannot carry"),
        ],
    )
    def test_gen_refuses_what_validate_refuses_before_opening_the_output(self, tmp_path, capsys, flag, value, message):
        n = 3
        pos = np.column_stack([np.linspace(0.0, 20.0, n), np.zeros(n), np.zeros(n)])
        fused = FusedPath(pos, np.zeros((n, 3)), np.full(n, 50.0), Frame.R)
        (tmp_path / "fused.json").write_text(fused_path_to_json(fused))
        (tmp_path / "kept.aml").write_bytes(b"earlier output\n")
        args = {"--fused": str(tmp_path / "fused.json"), "--project": "p", "--process-type": "other",
                "-o": str(tmp_path / "kept.aml"), flag: value}
        assert main(["pathml", "gen", *(a for pair in args.items() for a in pair)]) == 2
        assert message in capsys.readouterr().err
        assert (tmp_path / "kept.aml").read_bytes() == b"earlier output\n"


class TestOneCheck:
    """``pathml validate`` and ``emit`` run the same check, once per command."""

    def test_limit_violation_fails_validate_and_emit_alike(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("PATHFUSE_CONFIG", raising=False)
        pos = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [500.0, 0.0, 0.0]])  # a 490 mm step
        path = FusedPath(pos, np.zeros((3, 3)), np.full(3, 100.0), Frame.R)
        (tmp_path / "f.json").write_text(fused_path_to_json(path))
        doc = str(tmp_path / "p.aml")
        assert main(["pathml", "gen", "--fused", str(tmp_path / "f.json"), "--project", "p",
                     "--process-type", "other", "-o", doc]) == 0
        line = "layer 0 track 0 point 2: step 490.000 exceeds limit 50.000\n"
        capsys.readouterr()
        assert main(["pathml", "validate", doc]) == 1
        assert capsys.readouterr().out == line
        assert main(["emit", doc, "-o", str(tmp_path / "never.txt")]) == 1
        assert capsys.readouterr().err == line
        assert not (tmp_path / "never.txt").exists()

    def test_validate_reads_the_config(self, ws, capsys, monkeypatch):
        run_chain(ws)
        (ws / "tight.json").write_text(json.dumps(dict(CONFIG, limits={"max_step_mm": 5.0})))
        doc = str(ws / "doc.aml")
        assert main(["pathml", "validate", doc, "--config", str(ws / "tight.json")]) == 1
        assert "step" in capsys.readouterr().out
        monkeypatch.setenv("PATHFUSE_CONFIG", str(ws / "tight.json"))
        assert main(["pathml", "validate", doc]) == 1
        capsys.readouterr()
        (ws / "bad.json").write_text("{")
        monkeypatch.setenv("PATHFUSE_CONFIG", str(ws / "bad.json"))
        assert main(["pathml", "validate", doc]) == 2
        assert "error:" in capsys.readouterr().err

    def test_each_command_runs_the_document_rules_once(self, ws, monkeypatch):
        _, fused, doc, stack, _, _ = run_chain(ws)
        original = pathfuse.validate_document
        calls = []

        def counted(d):
            calls.append(d)
            return original(d)

        modules = [m for m in (pathfuse, pathfuse.cli, pathfuse.pathml, pathfuse.program)
                   if getattr(m, "validate_document", None) is original]
        for m in modules:
            monkeypatch.setattr(m, "validate_document", counted)
        assert len(modules) >= 2  # pathml's xml_chunks and program's validate_path
        for argv in (
            ["pathml", "gen", "--fused", fused, "--project", "p", "--process-type", "adhesive",
             "--glue-flow-rate", "12", "-o", str(ws / "again.aml")],
            ["pathml", "validate", doc, "--config", str(ws / "config.json")],
            ["emit", stack, "--config", str(ws / "config.json"), "-o", str(ws / "again.txt")],
        ):
            calls.clear()
            assert main(argv) == 0, argv
            assert len(calls) == 1, argv


class TestConfig:
    def test_env_var_matches_flag(self, ws, monkeypatch):
        run_chain(ws, "_flag")
        monkeypatch.setenv("PATHFUSE_CONFIG", str(ws / "config.json"))
        demo = str(ws / "demo_flag.csv")
        out_env = str(ws / "fused_env.json")
        assert main(["fuse", "--cad", str(ws / "cad.csv"), "--demo", demo,
                     "--calib", str(ws / "calib.json"), "-o", out_env]) == 0
        assert (ws / "fused_env.json").read_bytes() == (ws / "fused_flag.json").read_bytes()

    def test_gen_process_from_config_with_flag_override(self, ws):
        run_chain(ws)
        cfg = dict(CONFIG)
        cfg["process"] = {
            "process_type": "adhesive", "glue_flow_rate": 5.0, "layer_height": 2.0,
            "extra": {"Gas": "argon"},
        }
        (ws / "proc.json").write_text(json.dumps(cfg))
        base_args = ["pathml", "gen", "--fused", str(ws / "fused.json"),
                     "--project", "p", "--config", str(ws / "proc.json")]
        assert main(base_args + ["-o", str(ws / "from_cfg.aml")]) == 0
        doc = parse_xml((ws / "from_cfg.aml").read_bytes())
        assert doc.process.glue_flow_rate == 5.0
        assert doc.process.extra == (("Gas", "argon"),)

        assert main(base_args + ["--glue-flow-rate", "12", "-o", str(ws / "over.aml")]) == 0
        doc = parse_xml((ws / "over.aml").read_bytes())
        assert doc.process.glue_flow_rate == 12.0

    # field: (CLI flag, PathML attribute, program comment label)
    PROCESS_SPELLINGS = {
        "glue_flow_rate": ("--glue-flow-rate", "GlueFlowRate_ml_min", "glue_flow_rate_ml_min"),
        "wire_feed_rate": ("--wire-feed-rate", "WireFeedRate_mm_s", "wire_feed_rate_mm_s"),
        "layer_height": ("--layer-height", "LayerHeight_mm", "layer_height_mm"),
    }

    @pytest.mark.parametrize("name, attr", PROCESS_NUMBERS)
    def test_each_process_number_goes_from_config_to_program(self, ws, name, attr):
        assert [n for n, _ in PROCESS_NUMBERS] == list(self.PROCESS_SPELLINGS)
        flag, spelled, label = self.PROCESS_SPELLINGS[name]
        assert attr == spelled
        run_chain(ws)
        (ws / "proc.json").write_text(json.dumps(dict(CONFIG, process={"process_type": "other", name: 1.25})))
        gen = ["pathml", "gen", "--fused", str(ws / "fused.json"), "--project", "p", "--config", str(ws / "proc.json")]
        for argv, value in ((gen, "1.25"), (gen + [flag, "2.5"], "2.5")):  # a flag wins over the config
            assert main(argv + ["-o", str(ws / "p.aml")]) == 0
            text = (ws / "p.aml").read_text()
            assert f'<Attribute Name="{attr}"><Value>{float(value):.6f}</Value></Attribute>' in text
            process = parse_xml(text).process
            assert [getattr(process, n) for n, _ in PROCESS_NUMBERS] == [
                float(value) if n == name else None for n, _ in PROCESS_NUMBERS
            ]
            assert main(["emit", str(ws / "p.aml"), "--config", str(ws / "config.json"),
                         "-o", str(ws / "p.txt")]) == 0
            head = (ws / "p.txt").read_text().splitlines()[:3]
            assert head == ["# program: p", "# process_type: other", f"# {label}: {float(value):.3f}"]

    def test_gen_extras_keep_flag_order(self, ws):
        run_chain(ws)
        assert main(["pathml", "gen", "--fused", str(ws / "fused.json"), "--project", "p",
                     "--process-type", "other", "--extra", "B_key=2", "--extra", "A_key=1",
                     "-o", str(ws / "ex.aml")]) == 0
        doc = parse_xml((ws / "ex.aml").read_bytes())
        assert doc.process.extra == (("B_key", "2"), ("A_key", "1"))

    def test_calls_share_no_parsed_state(self, ws, capsys):
        run_chain(ws)
        gen = ["pathml", "gen", "--fused", str(ws / "fused.json"), "--project", "p", "--process-type", "other"]
        assert main(gen + ["--extra", "a=1", "-o", str(ws / "with.aml")]) == 0
        assert main(gen + ["-o", str(ws / "without.aml")]) == 0
        assert parse_xml((ws / "with.aml").read_bytes()).process.extra == (("a", "1"),)
        assert parse_xml((ws / "without.aml").read_bytes()).process.extra == ()
        assert main(gen + ["--layers", "2"]) == 2
        assert main(["pathml", "validate", str(ws / "without.aml")]) == 0
        capsys.readouterr()

    def test_unknown_config_key_rejected(self, ws, capsys):
        (ws / "bad.json").write_text(json.dumps({"filter_windw": 5}))
        code = main(["fuse", "--cad", str(ws / "cad.csv"), "--demo", str(ws / "cad.csv"),
                     "--calib", str(ws / "calib.json"), "--config", str(ws / "bad.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["fuse"]) == 2
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        code = main(["pathml", "validate", str(tmp_path / "nope.aml")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_synth_rejects_robot_frame_truth(self, ws, capsys):
        run_chain(ws)
        code = main(["synth", "--truth", str(ws / "fused.json"), "--rate", "100"])
        assert code == 2
        assert "receiver frame" in capsys.readouterr().err

    def test_bad_demo_rejected(self, ws, capsys):
        (ws / "bad.csv").write_text("time,x\n0,1\n")
        code = main(["fuse", "--cad", str(ws / "cad.csv"), "--demo", str(ws / "bad.csv"),
                     "--calib", str(ws / "calib.json")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("angle", ["NaN", "Infinity"])
    def test_non_finite_calibration_angle(self, ws, capsys, angle):
        run_chain(ws)
        calib = dict(CALIB, t_f_s={"translation_mm": [0, 0, 0], "rotation_deg_fixed_xyz": [0, 0, 0]})
        text = json.dumps(calib).replace("[0, 0, 0]}", f"[0, {angle}, 0]}}")
        (ws / "bad_calib.json").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the error
            code = main(["fuse", "--cad", str(ws / "cad.csv"), "--demo", str(ws / "demo.csv"),
                         "--calib", str(ws / "bad_calib.json")])
        assert code == 2
        assert "rotation_deg_fixed_xyz must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("digits", [401, 5001])  # beyond the float range; beyond int()'s digit limit
    def test_huge_json_integers(self, ws, capsys, digits):
        demo, fused, *_ = run_chain(ws)
        big = "1" + "0" * (digits - 1)
        path = json.loads((ws / "fused.json").read_text())
        path["points"][0]["x_mm"] = "BIG"
        (ws / "big_fused.json").write_text(json.dumps(path).replace('"BIG"', big))
        (ws / "big_config.json").write_text('{"tolerance_mm": %s}' % big)
        calib = dict(CALIB, t_f_s={"translation_mm": ["BIG", 0, 0], "rotation_deg_fixed_xyz": [0, 0, 0]})
        (ws / "big_calib.json").write_text(json.dumps(calib).replace('"BIG"', big))
        (ws / "big_cad.json").write_text('{"waypoints": [[%s, 0, 0], [1, 1, 1]]}' % big)
        for argv in (
            ["pathml", "gen", "--fused", str(ws / "big_fused.json"), "--project", "p", "--process-type", "other"],
            ["report", "--executed", fused, "--nominal", fused, "--config", str(ws / "big_config.json")],
            ["fuse", "--cad", str(ws / "cad.csv"), "--demo", demo, "--calib", str(ws / "big_calib.json")],
            ["fuse", "--cad", str(ws / "big_cad.json"), "--demo", demo, "--calib", str(ws / "calib.json")],
        ):
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_synth_rejects_a_rate_that_is_not_finite_and_positive(self, ws, capsys, rate):
        code = main(["synth", "--truth", str(ws / "truth.json"), "--rate", rate])
        assert code == 2
        assert "rate_hz must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--xy-noise", "nan", "xy_noise_sigma must be finite, got nan"),
        ("--z-bias-max", "inf", "z_bias_max must be finite, got inf"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--orient-noise", "1e308", "an orientation in degrees is beyond the float range"),
        ("--xy-noise", "1e308", "xy_noise_sigma 1e+308 draws x/y noise beyond the float range"),
    ])
    def test_synth_refuses_a_model_whose_capture_it_could_not_write(self, ws, capsys, flag, value, message):
        out = ws / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["synth", "--truth", str(ws / "truth.json"), "--rate", "50", flag, value, "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_synth_rate_past_the_sample_bound_exits_2(self, ws, capsys, monkeypatch):
        monkeypatch.setattr(pathfuse.demo, "MAX_POINTS", 10)  # the truth is 4 s: 401 samples at 100 Hz
        code = main(["synth", "--truth", str(ws / "truth.json"), "--rate", "100"])
        assert code == 2
        assert "the limit is 10" in capsys.readouterr().err

    def test_integer_flags_take_ascii_digits_only(self, ws, capsys):
        _, _, doc, *_ = run_chain(ws)
        for bad in ("1_0", "\u0662", "2.0", "0x3"):
            for argv in (
                ["synth", "--truth", str(ws / "truth.json"), "--rate", "100", "--seed", bad],
                ["pathml", "expand", doc, "--layers", bad, "-o", str(ws / "stack_bad.aml")],
            ):
                assert main(argv) == 2, argv
                assert "invalid integer value" in capsys.readouterr().err
        assert not (ws / "stack_bad.aml").exists()

    def test_number_flags_take_ascii_decimals_only(self, ws, capsys):
        _, fused, doc, *_ = run_chain(ws)
        for argv in (
            ["synth", "--truth", str(ws / "truth.json"), "--rate", "1_00"],
            ["pathml", "gen", "--fused", fused, "--project", "p", "--process-type", "other",
             "--layer-height", "\u0662"],
            ["report", "--executed", fused, "--nominal", fused, "--sections", "0.2_5"],
            ["pathml", "expand", doc, "--layers", "2", "--direction", "0,0,1_0"],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "invalid number value" in err or "not a number" in err, err

    def test_rejected_numbers_name_their_line_point_or_key(self, ws, capsys):
        demo, fused, *_ = run_chain(ws)
        lines = (ws / "demo.csv").read_text().splitlines(keepends=True)
        lines[2] = lines[2].replace(",", ",1_0", 1)
        (ws / "bad_demo.csv").write_text("".join(lines))
        (ws / "bad_cad.csv").write_text(CAD_CSV.replace("\n300,", "\n\u0663\u0660\u0660,"))
        points = json.loads((ws / "fused.json").read_text())
        points["points"][3]["rz_deg"] = "1.5"
        (ws / "bad_fused.json").write_text(json.dumps(points))
        (ws / "bad_cad.json").write_text('{"waypoints": [[0, 0, 0], [1, true, 0]]}')
        (ws / "bad_config.json").write_text('{"limits": {"max_step_mm": "50"}}')
        calib = dict(CALIB, t_r_f={"translation_mm": [0, 0, 0], "rotation_deg_fixed_xyz": [0, "90", 0]})
        (ws / "bad_calib.json").write_text(json.dumps(calib))
        (ws / "bad_doc.aml").write_text((ws / "doc.aml").read_text().replace(
            '"Velocity_mm_s"><Value>', '"Velocity_mm_s"><Value>1_', 1))
        fuse = ["fuse", "--cad", str(ws / "cad.csv"), "--demo", demo, "--calib", str(ws / "calib.json")]
        cases = [
            (fuse[:4] + [str(ws / "bad_demo.csv")] + fuse[5:], "line 3: bad number in row"),
            (fuse[:2] + [str(ws / "bad_cad.csv")] + fuse[3:], "line 5: bad number in row"),
            (fuse[:2] + [str(ws / "bad_cad.json")] + fuse[3:], "waypoint 1: expected 3 finite JSON numbers"),
            (fuse[:6] + [str(ws / "bad_calib.json")], "calibration 't_r_f' translation_mm and rotation_deg_fixed_xyz must be finite 3-vectors"),
            (fuse + ["--config", str(ws / "bad_config.json")], "config limits.max_step_mm must be a JSON number, got str"),
            (["report", "--executed", str(ws / "bad_fused.json"), "--nominal", fused],
             "point 3: expected 7 finite JSON numbers"),
            (["pathml", "validate", str(ws / "bad_doc.aml")],
             "Layer_0/Track_0/Point_0: Velocity_mm_s is not a number: '1_"),
        ]
        for argv, message in cases:
            assert main(argv) == 2, argv
            assert message in capsys.readouterr().err, argv

    @pytest.mark.parametrize("reader", ["cad", "calib", "config", "fused"])
    def test_deeply_nested_json(self, ws, capsys, reader):
        # deeper than the interpreter's recursion limit: json.loads raises RecursionError
        demo, *_ = run_chain(ws)
        deep = "[" * 100_000 + "]" * 100_000
        (ws / "deep.json").write_text('{"waypoints": %s}' % deep if reader == "cad" else deep)
        files = {"cad": str(ws / "cad.csv"), "calib": str(ws / "calib.json"), reader: str(ws / "deep.json")}
        argv = ["fuse", "--cad", files["cad"], "--demo", demo, "--calib", files["calib"]]
        if reader == "config":
            argv += ["--config", str(ws / "deep.json")]
        elif reader == "fused":
            argv = ["pathml", "gen", "--fused", str(ws / "deep.json"), "--project", "p", "--process-type", "other"]
        assert main(argv) == 2
        assert "bad JSON: nested too deeply" in capsys.readouterr().err

    def test_expand_zero_direction(self, ws, capsys):
        run_chain(ws)
        code = main(["pathml", "expand", str(ws / "doc.aml"), "--layers", "2",
                     "--direction", "0,0,0"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("extreme, plain", [("1e308,1e308,0", "1,1,0"), ("1e-200,0,0", "1,0,0"),
                                                ("0,0,1e-160", "0,0,1")])
    def test_expand_normalizes_a_direction_whose_squares_overflow_or_vanish(self, ws, extreme, plain):
        run_chain(ws)
        env = {**child_env(), "PYTHONWARNINGS": "error"}
        stacks = []
        for direction in (extreme, plain):
            out = ws / f"stack_{len(stacks)}.aml"
            argv = ["pathml", "expand", str(ws / "doc.aml"), "--layers", "3", f"--direction={direction}", "-o", str(out)]
            proc = subprocess.run([sys.executable, "-m", "pathfuse", *argv], env=env, capture_output=True)
            assert (proc.returncode, proc.stderr) == (0, b""), direction
            stacks.append(out.read_bytes())
        assert stacks[0] == stacks[1]

    def test_expand_beyond_the_point_limit(self, ws, capsys):
        run_chain(ws)
        code = main(["pathml", "expand", str(ws / "doc.aml"), "--layers", str(10**12)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_fuse_resampling_beyond_the_point_limit(self, ws, capsys):
        demo, *_ = run_chain(ws)
        (ws / "far.csv").write_text("x_mm,y_mm,z_mm\n0,0,0\n1e12,0,0\n")  # 5e11 points at 2 mm
        (ws / "fine.json").write_text(json.dumps({"resample_spacing_mm": 2.0}))
        code = main(["fuse", "--cad", str(ws / "far.csv"), "--demo", demo,
                     "--calib", str(ws / "calib.json"), "--config", str(ws / "fine.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_fuse_refuses_a_filter_window_past_the_bound(self, ws, capsys):
        demo, *_ = run_chain(ws)
        fuse = ["fuse", "--cad", str(ws / "cad.csv"), "--demo", demo, "--calib", str(ws / "calib.json")]
        for window, code in ((MAX_FILTER_WINDOW, 0), (MAX_FILTER_WINDOW + 2, 2), (20001, 2)):
            (ws / "wide.json").write_text(json.dumps({"filter": {"window": window}}))
            out = ws / f"wide_{window}.json"
            capsys.readouterr()
            assert main(fuse + ["--config", str(ws / "wide.json"), "-o", str(out)]) == code
            if code:
                assert capsys.readouterr().err == f"error: window must be at most {MAX_FILTER_WINDOW}, got {window}\n"
            assert out.exists() == (code == 0)

    @pytest.mark.parametrize("section, message", [({"window": 4}, "window must be an odd integer >= 3, got 4"),
                                                  ({"k": -1.0}, "k must be positive, got -1.0")])
    def test_fuse_reports_a_bad_filter_before_a_bad_spacing(self, ws, capsys, section, message):
        demo, *_ = run_chain(ws)
        (ws / "bad.json").write_text(json.dumps({"filter": section, "resample_spacing_mm": -1.0}))
        capsys.readouterr()
        code = main(["fuse", "--cad", str(ws / "cad.csv"), "--demo", demo, "--calib", str(ws / "calib.json"),
                     "--config", str(ws / "bad.json")])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
        (ws / "bad.json").write_text(json.dumps({"resample_spacing_mm": -1.0}))
        code = main(["fuse", "--cad", str(ws / "cad.csv"), "--demo", demo, "--calib", str(ws / "calib.json"),
                     "--config", str(ws / "bad.json")])
        assert (code, capsys.readouterr().err) == (2, "error: spacing_mm must be positive and finite, got -1.0\n")


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "pathfuse", "--help"], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0
    assert "pathfuse" in proc.stdout


@pytest.mark.skipif(shutil.which("pathfuse") is None, reason="console script not on PATH")
def test_console_script_smoke():
    proc = subprocess.run(["pathfuse", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
