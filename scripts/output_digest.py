#!/usr/bin/env python3
"""Digests of pipeline outputs, to show that two checkouts compute the same bits.

    python3 scripts/output_digest.py [--root CHECKOUT]

Imports pathfuse from CHECKOUT/src and the benchmark's input generators from
CHECKOUT/bench (CHECKOUT defaults to the one holding this script), and prints
one sha256 per part:

* ``noise_sweep``: positions, orientations and speeds of the fused path of the
  first 240 operations (one full cycle of the grid) at seeds 1, 7 and 1431;
* ``capture_long``, ``stack_dense``: every file one CLI-chain operation and the
  quality pass leave in the work directory, at seeds 1, 7 and 11;
* ``near_lock``: 50 ``synth_demo`` captures of a path whose pitch passes through
  +-90 degrees, and their ``filter_outliers`` then ``fuse`` result.

The last line is one JSON object of the same digests.  Only the inputs are
seeded, so equal digests from two checkouts mean equal outputs.
"""

import argparse
import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

NOISE_SEEDS = (1, 7, 1431)
CHAIN_SEEDS = (1, 7, 11)
NEAR_LOCK_CAPTURES = 50


def _update(h, *arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())


def noise_sweep(pf, workloads) -> str:
    h = hashlib.sha256()
    for seed in NOISE_SEEDS:
        wl = workloads.NoiseWorkload(seed, pf)
        for _ in range(workloads.NOISE_CYCLE):
            wl.op()
            _update(h, wl.fused.positions, wl.fused.orientations, wl.fused.speeds)
    return h.hexdigest()


def chain(pf, workloads, name: str) -> str:
    h = hashlib.sha256()
    for seed in CHAIN_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            wl = workloads.ChainWorkload(workloads.CHAIN_SPECS[name], seed, work, pf.cli.main)
            wl.op()
            wl.quality_pass()
            for f in sorted(p for p in work.rglob("*") if p.is_file()):
                h.update(str(f.relative_to(work)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def near_lock(pf) -> str:
    n = 9
    pos = np.column_stack([np.linspace(0.0, 400.0, n), np.zeros(n), np.zeros(n)])
    pitch = np.radians([60.0, 80.0, 89.9, 90.0, 90.0, 95.0, -90.0, -89.99999, -70.0])
    turns = np.column_stack([np.linspace(0.0, 2.0, n), pitch, np.linspace(-1.0, 3.0, n)])
    truth = pf.FusedPath(pos, turns, np.full(n, 100.0), pf.Frame.S)
    cad = pf.CadPath(pos)
    h = hashlib.sha256()
    for seed in range(NEAR_LOCK_CAPTURES):
        noise = 0.0 if seed % 5 == 0 else 0.5 * (seed % 4)  # every fifth capture exactly on the locks
        model = pf.TrackerErrorModel(z_bias_max=20.0, orient_noise_sigma=noise, spike_rate=0.02, seed=seed)
        demo = pf.synth_demo(truth, model, 100.0)
        fused = pf.fuse(cad, pf.filter_outliers(demo))
        _update(h, demo.t, demo.positions, demo.orientations, fused.orientations, fused.speeds)
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    root = ap.parse_args().root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    pf = importlib.import_module("pathfuse")
    importlib.import_module("pathfuse.cli")
    workloads = importlib.import_module("workloads")
    if Path(pf.__file__).resolve().parent != root / "src" / "pathfuse":
        sys.exit(f"imported pathfuse from {pf.__file__}, not from {root / 'src'}")

    digests = {
        "noise_sweep": noise_sweep(pf, workloads),
        "capture_long": chain(pf, workloads, "capture_long"),
        "stack_dense": chain(pf, workloads, "stack_dense"),
        "near_lock": near_lock(pf),
    }
    for name, digest in digests.items():
        print(f"{name:13s} {digest}")
    print(json.dumps(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
