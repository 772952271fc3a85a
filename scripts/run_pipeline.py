#!/usr/bin/env python3
"""End-to-end demo of the capture-to-program pipeline.

Builds a small synthetic workspace (truth path, CAD polyline, calibration,
config), then drives the CLI through every stage: simulate a tracker capture,
fuse it with the CAD path, wrap the result as PathML, expand it into a layer
stack, emit a neutral robot program, and write a deviation report.  The
report compares an executed path, the fused path plus seeded uniform jitter
of at most 1 mm per axis, with the fused path.  Every artifact lands in --out
so the whole run can be inspected afterwards.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from pathfuse import Frame, FusedPath, fused_path_from_json, fused_path_to_json
from pathfuse.cli import main as cli

CAD_CSV = "x_mm,y_mm,z_mm\n0,0,0\n100,0,0\n200,0,0\n300,0,0\n400,0,0\n"

CALIB = {
    "t_r_f": {"translation_mm": [250.0, -80.0, 440.0], "rotation_deg_fixed_xyz": [0.0, 0.0, 90.0]},
    "t_f_s": {"translation_mm": [12.0, 3.0, -7.5], "rotation_deg_fixed_xyz": [0.0, 0.0, 0.0]},
}

CONFIG = {
    "filter": {"window": 11, "k": 3.0},
    "resample_spacing_mm": 25.0,
    "limits": {"max_step_mm": 50.0, "max_orient_step_deg": 30.0},
    "tolerance_mm": 4.0,
}


def make_truth() -> str:
    """Straight 400 mm sweep, tool yawing 0 to 90 degrees along the way."""
    n = 5
    pos = np.column_stack([np.linspace(0.0, 400.0, n), np.zeros(n), np.zeros(n)])
    ang = np.column_stack([np.zeros(n), np.zeros(n), np.linspace(0.0, np.pi / 2, n)])
    return fused_path_to_json(FusedPath(pos, ang, np.full(n, 100.0), Frame.S))


def make_executed(fused_json: bytes, seed: int) -> str:
    """The fused path as a robot would run it: each position jittered by at most 1 mm per axis."""
    path = fused_path_from_json(fused_json)
    jitter = np.random.default_rng(seed).uniform(-1.0, 1.0, path.positions.shape)
    return fused_path_to_json(
        FusedPath(path.positions + jitter, path.orientations, path.speeds, path.frame, path.closed)
    )


def run(argv: list[str]) -> None:
    print("$ pathfuse " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(f"step failed with exit code {code}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="pipeline_out", help="artifact directory")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rate", type=float, default=100.0, help="capture rate in Hz")
    ap.add_argument("--layers", type=int, default=3)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "truth.json").write_text(make_truth())
    (out / "cad.csv").write_text(CAD_CSV)
    (out / "calib.json").write_text(json.dumps(CALIB, indent=2))
    (out / "config.json").write_text(json.dumps(CONFIG, indent=2))

    run(["synth", "--truth", str(out / "truth.json"), "--rate", str(args.rate),
         "--z-bias-max", "60", "--xy-noise", "2", "--orient-noise", "1",
         "--spike-rate", "0.02", "--seed", str(args.seed), "-o", str(out / "demo.csv")])
    run(["fuse", "--cad", str(out / "cad.csv"), "--demo", str(out / "demo.csv"),
         "--calib", str(out / "calib.json"), "--config", str(out / "config.json"),
         "-o", str(out / "fused.json")])
    run(["pathml", "gen", "--fused", str(out / "fused.json"), "--project", "demo-part",
         "--process-type", "adhesive", "--glue-flow-rate", "12", "--layer-height", "2",
         "-o", str(out / "part.aml")])
    run(["pathml", "validate", str(out / "part.aml"), "--config", str(out / "config.json")])
    run(["pathml", "expand", str(out / "part.aml"), "--layers", str(args.layers),
         "-o", str(out / "stack.aml")])
    run(["emit", str(out / "stack.aml"), "--config", str(out / "config.json"),
         "-o", str(out / "program.txt")])
    (out / "executed.json").write_text(make_executed((out / "fused.json").read_bytes(), args.seed))
    run(["report", "--executed", str(out / "executed.json"), "--nominal", str(out / "fused.json"),
         "--sections", "0.25,0.5,0.75", "-o", str(out / "report.json")])

    program = (out / "program.txt").read_text().splitlines()
    moves = sum(1 for line in program if line.startswith("MOVEL"))
    print(f"\nartifacts in {out}/")
    print(f"  program.txt: {len(program)} lines, {moves} motion commands, {args.layers} layers")
    print(f"  report.json: {json.loads((out / 'report.json').read_text())['overall_max_mm']:.3f} mm max deviation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
