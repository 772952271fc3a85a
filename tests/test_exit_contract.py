"""Exit-code contract under mutated input files.

Every input the CLI reads is mutated byte by byte with a seeded generator and
run through ``pathfuse.cli.main`` in-process: the exit code must be 0, 1 or
2 and no exception may escape ``main``.  ``pathml validate`` and ``emit``, given
the same config, must exit alike on every mutated PathML document.  The cases run in a child process
whose address space is capped, so an input that asks for a huge allocation
fails there with a MemoryError instead of exhausting the machine.

Run directly (``python tests/test_exit_contract.py``) it performs the cases
and prints one JSON object: the case count, every escape and every document
on which ``pathml validate`` and ``emit`` disagree.
"""

import contextlib
import io
import json
import random
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from conftest import child_env

SEED = 12  # without the size bounds and the encoding check, 2 MemoryErrors and 3 LookupErrors escape here
CASES_PER_INPUT = 100
ADDRESS_SPACE_CAP = 1 << 30  # bytes; the child imports numpy in about 0.1 GiB

# Bytes the mutations insert or write: markup and number syntax, controls,
# a UTF-8 non-character (U+FFFE), a BOM and a non-ASCII letter.
POOL = [bytes([c]) for c in b'&<>"\'\r\t\n .-+eE0123456789,#{}[]:'] + [
    b"nan", b"inf", b"\x00", b"\xef\xbf\xbe", b"\xef\xbb\xbf", "é".encode(), b"\xff",
]
EXPONENTS = [b"e9", b"e-9", b"e300", b"e-300"]
NUMBER_END = re.compile(rb"[0-9](?![0-9.])")


def mutate(data: bytes, rng: random.Random) -> bytes:
    """Apply one or two byte deletions, insertions, overwrites, copies or
    exponents appended to a number."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(out) + 1)
        op = rng.randrange(5)
        ends = [m.end() for m in NUMBER_END.finditer(out)]
        if op == 0 and out:
            del out[min(k, len(out) - 1)]
        elif op == 1:
            out[k:k] = rng.choice(POOL)
        elif op == 2 and k < len(out):
            out[k:k + 1] = rng.choice(POOL)
        elif op == 3 and ends:
            k = rng.choice(ends)
            out[k:k] = rng.choice(EXPONENTS)
        else:
            j = rng.randrange(len(out) + 1)
            out[k:k] = out[j:j + rng.randint(1, 8)]
    return bytes(out)


def _inputs(work: Path, main) -> dict[str, bytes]:
    """Small valid inputs: CAD, demonstration, config, calibration, fused path and PathML."""
    import numpy as np

    from pathfuse import Frame, FusedPath, TrackerErrorModel, format_demo_csv, synth_demo

    cad = np.array([[0.0, 0.0, 0.0], [120.0, 0.0, 0.0], [120.0, 80.0, 0.0], [40.0, 80.0, 10.0]])
    truth = FusedPath(cad, np.column_stack([np.zeros(4), np.zeros(4), np.linspace(0.0, 1.0, 4)]),
                      np.full(4, 100.0), Frame.S)
    files = {
        "cad.csv": ("x_mm,y_mm,z_mm\n" + "".join(f"{x},{y},{z}\n" for x, y, z in cad)).encode(),
        "demo.csv": format_demo_csv(synth_demo(truth, TrackerErrorModel(seed=3), 25.0)),
        "config.json": json.dumps({
            "filter": {"window": 5, "k": 3.0},
            "resample_spacing_mm": 20.0,
            "limits": {"max_step_mm": 50.0, "max_orient_step_deg": 30.0},
        }).encode(),
        "calib.json": json.dumps({
            "t_r_f": {"translation_mm": [400.0, 0.0, 300.0], "rotation_deg_fixed_xyz": [0.0, 0.0, 90.0]},
            "t_f_s": {"translation_mm": [10.0, 0.0, -5.0], "rotation_deg_fixed_xyz": [1.0, -2.0, 30.0]},
        }).encode(),
    }
    for name, data in files.items():
        (work / name).write_bytes(data)
    argv = ["fuse"] + [f"--{k}={work / n}" for k, n in
                       (("cad", "cad.csv"), ("demo", "demo.csv"), ("calib", "calib.json"), ("config", "config.json"))]
    assert main(argv + ["-o", str(work / "fused.json")]) == 0
    assert main(["pathml", "gen", "--fused", str(work / "fused.json"), "--project", "part",
                 "--process-type", "welding", "--wire-feed-rate", "8", "--layer-height", "2",
                 "-o", str(work / "part.aml")]) == 0
    files["fused.json"] = (work / "fused.json").read_bytes()
    files["part.aml"] = (work / "part.aml").read_bytes()
    return files


def run_cases(seed: int, cases_per_input: int) -> dict:
    """Run the mutated cases in this process; returns the count, the escapes and the disagreements."""
    from pathfuse.cli import main

    rng = random.Random(seed)
    escapes, disagreements, cases = [], [], 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base = _inputs(work, main)
        good = {name: str(work / name) for name in base}
        bad = work / "mutated"
        runs = {
            "part.aml": [["pathml", "validate", str(bad), "--config", good["config.json"]],
                         ["pathml", "expand", str(bad), "--layers", "3", "-o", str(work / "stack.aml")],
                         ["emit", str(bad), "--config", good["config.json"], "-o", str(work / "prog.txt")]],
        }
        flags = {"cad.csv": "--cad", "demo.csv": "--demo", "calib.json": "--calib", "config.json": "--config"}
        for name, flag in flags.items():
            argv = ["fuse"] + [a for n, f in flags.items() for a in (f, str(bad) if n == name else good[n])]
            runs[name] = [argv + ["-o", str(work / "fuse_out.json")]]
        # The fused-path cases come after the others, so those keep the mutations SEED gives them.
        order = [(i, name) for i in range(cases_per_input) for name in runs]
        order += [(i, "fused.json") for i in range(cases_per_input)]
        runs["fused.json"] = [
            ["pathml", "gen", "--fused", str(bad), "--project", "part", "--process-type", "other",
             "-o", str(work / "gen.aml")],
            ["report", "--executed", str(bad), "--nominal", good["fused.json"], "-o", str(work / "rep.json")],
            ["report", "--executed", good["fused.json"], "--nominal", str(bad), "-o", str(work / "rep.json")],
        ]
        for i, name in order:
            data = mutate(base[name], rng)
            bad.write_bytes(data)
            codes = []
            for argv in runs[name]:
                cases += 1
                codes.append(None)
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = main(argv)
                except Exception as e:  # the contract under test: nothing escapes main
                    escapes.append(f"{name} case {i} {argv[:2]}: {type(e).__name__}: {str(e)[:200]} "
                                   f"input={data[:80]!r}")
                    continue
                codes[-1] = code
                if code not in (0, 1, 2):
                    escapes.append(f"{name} case {i} {argv[:2]}: exit code {code!r}")
            if name == "part.aml" and codes[0] != codes[2]:  # validate, expand, emit
                disagreements.append(f"case {i}: validate exited {codes[0]}, emit {codes[2]}, input={data[:80]!r}")
    return {"cases": cases, "escapes": escapes, "disagreements": disagreements}


def test_mutated_inputs_keep_the_exit_code_contract():
    env = {**child_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["cases"] == CASES_PER_INPUT * 10
    assert result["escapes"] == []
    assert result["disagreements"] == []


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    print(json.dumps(run_cases(SEED, CASES_PER_INPUT)))
