import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import child_env
from pathfuse import Frame, FusedPath, fused_path_to_json, parse_xml
from pathfuse.cli import main

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

    def test_gen_extras_keep_flag_order(self, ws):
        run_chain(ws)
        assert main(["pathml", "gen", "--fused", str(ws / "fused.json"), "--project", "p",
                     "--process-type", "other", "--extra", "B_key=2", "--extra", "A_key=1",
                     "-o", str(ws / "ex.aml")]) == 0
        doc = parse_xml((ws / "ex.aml").read_bytes())
        assert doc.process.extra == (("B_key", "2"), ("A_key", "1"))

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

    def test_expand_zero_direction(self, ws, capsys):
        run_chain(ws)
        code = main(["pathml", "expand", str(ws / "doc.aml"), "--layers", "2",
                     "--direction", "0,0,0"])
        assert code == 2
        capsys.readouterr()


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
