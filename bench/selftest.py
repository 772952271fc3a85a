#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 bench/selftest.py

Runs each workload once at a tiny size, with and without tracing, checks that
the printed metric names and units are the ones BENCHMARK.json declares, that
corrupted outputs count as failed operations instead of ending the run, that
the benchmark's own geometry agrees with brute force, and that the benchmark
refuses to run without the pathfuse sources.  Exits 1 on the first failure.
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys

import numpy as np

import run
import workloads

WORK = run.ROOT / ".bench_work" / "selftest"

# tiny variants of the CLI workloads: same code paths, a fraction of the work
TINY = {
    "capture_long": dataclasses.replace(workloads.CHAIN_SPECS["capture_long"], rate_hz=24.0, quality_captures=2),
    "stack_dense": dataclasses.replace(workloads.CHAIN_SPECS["stack_dense"], spacing_mm=6.0, layers=2,
                                       quality_captures=2),
    "noise_sweep": None,
}


def declared(kind: str) -> dict:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_workloads_run_and_print_declared_metrics():
    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.run(name, 5, 0.3, trace, WORK / name, spec=TINY[name], probe=False)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (name, result)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            want = declared("per_layer" if trace else "end_to_end")
            assert got == want, (name, trace, set(got) ^ set(want))


class CorruptProgram(workloads.ChainWorkload):
    def op(self, span=None):
        super().op(span)
        p = self.work / "program.txt"
        lines = p.read_text().splitlines(keepends=True)
        i = next(k for k, line in enumerate(lines) if line.startswith("MOVEL"))
        f = lines[i].split(" ")
        f[1] = f"{float(f[1]) + 0.5:.3f}"
        lines[i] = " ".join(f)
        p.write_text("".join(lines))


class CorruptFused(workloads.ChainWorkload):
    def op(self, span=None):
        super().op(span)
        p = self.work / "fused.json"
        obj = json.loads(p.read_text())
        obj["points"][3]["y_mm"] += 1e-3
        p.write_text(json.dumps(obj))


class CorruptNoise(workloads.NoiseWorkload):
    def op(self, span=None):
        super().op(span)
        f = self.fused
        pos = f.positions.copy()
        pos[4, 0] += 1e-9
        self.fused = dataclasses.replace(f, positions=pos)


def test_corrupt_outputs_count_as_failed_ops():
    pf = run.import_pathfuse()
    spec = TINY["capture_long"]
    cases = [
        CorruptProgram(spec, 5, WORK / "prog", pf.cli.main),  # first op: full MOVEL check
        CorruptFused(spec, 5, WORK / "fused", pf.cli.main),
        CorruptNoise(5, pf),
        workloads.ChainWorkload(spec, 5, WORK / "exit2", lambda argv: 2),  # every subcommand fails
    ]
    later = CorruptProgram(spec, 5, WORK / "prog2", pf.cli.main)
    workloads.ChainWorkload.op(later)
    later.check()  # a good first op records the program digest; later ops must match it
    for wl in cases + [later]:
        res = run.measure(wl, 0.2, log=io.StringIO())
        assert res["attempted"] >= 1 and res["failed"] == res["attempted"], (type(wl).__name__, res)


def test_geometry_against_brute_force():
    rng = np.random.default_rng(0)
    a = rng.uniform(-180, 180, (50, 3))
    a[:, 1] /= 2.1  # pitch inside (-90, 90) so the angles round-trip
    r = workloads.rot_fixed_xyz_deg(a)
    assert np.allclose(np.swapaxes(r, 1, 2) @ r, np.eye(3), atol=1e-12)
    assert np.allclose(workloads.fixed_xyz_deg(r), a, atol=1e-9)
    # yaw 179.5 vs -179.5 is a 1 degree turn, not 359
    d = workloads.geodesic_deg(workloads.rot_fixed_xyz_deg([[0, 0, 179.5]]), workloads.rot_fixed_xyz_deg([[0, 0, -179.5]]))
    assert abs(d[0] - 1.0) < 1e-9, d
    poly = rng.normal(0, 10, (7, 3))
    poly[3] = poly[2]  # a zero-length segment acts as a point
    pts = rng.normal(0, 10, (130, 3))

    def brute(p):
        best = np.inf
        for s, e in zip(poly[:-1], poly[1:]):
            d = e - s
            t = 0.0 if d @ d == 0 else min(max((p - s) @ d / (d @ d), 0.0), 1.0)
            best = min(best, float(np.linalg.norm(p - (s + t * d))))
        return best

    assert np.allclose(workloads.point_to_polyline(pts, poly), [brute(p) for p in pts], rtol=0, atol=1e-12)


def test_inputs_follow_the_seed():
    spec = TINY["stack_dense"]
    a, b, c = (workloads.make_chain_inputs(spec, s).digest() for s in (7, 7, 8))
    assert a == b != c


def test_refuses_to_run_without_sources():
    bare = WORK / "bare"
    shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "noise_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and "correct" not in out.stdout, out


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    try:
        for t in tests:
            t()
            print(f"ok   {t.__name__}")
    except AssertionError as e:
        print(f"FAIL {t.__name__}: {e}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
