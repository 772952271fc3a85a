#!/usr/bin/env python3
"""Digests of pipeline outputs, to show that two checkouts compute the same bits.

    python3 scripts/output_digest.py [--root CHECKOUT]

Imports pathfuse from CHECKOUT/src and the benchmark's input generators from
CHECKOUT/bench (CHECKOUT defaults to the one holding this script), takes the
``synth`` truths from the ``noise_study.py`` beside this script, and prints one
sha256 per part:

* ``noise_sweep``: positions, orientations and speeds of the fused path of the
  first 240 operations (one full cycle of the grid) at seeds 1, 7 and 1431;
* ``capture_long``, ``stack_dense``: every file one CLI-chain operation and the
  quality pass leave in the work directory, at seeds 1, 7 and 11;
* ``open_stack``: the same for ``capture_long``'s chain expanded to 3 layers, an
  open path whose odd layers run backwards;
* ``near_lock``: 50 ``synth_demo`` captures of a path whose pitch passes through
  +-90 degrees, and their ``filter_outliers`` then ``fuse`` result;
* ``deviation``: ``deviation_report`` JSON, with section breaks 0.05 ... 0.95,
  of four executed paths against the ``stack_dense`` nominal path (the chain's
  fused path) at seeds 7 and 11: the chain's jittered path, the same moved
  150 mm along z (``far150``), points at the loop's centre (``centre``, where
  the search can skip no segment) and a log five times denser (``dense``);
* ``synth``: ``format_demo_csv`` of ``synth_demo`` captures of
  ``noise_study.py``'s line and circle at 100 and 240 Hz, two seeds for each of
  the study's 24 cells; the truth and the rate change every two captures, so
  the first capture of each pair samples its truth afresh and the second reads
  the traversal ``synth_demo`` kept.

Then, for each chain workload, one sha256 per output file name over the same
seeds (``OUTPUT_FILES``; ``capture*/fused.json`` are the quality pass's fused
captures), so that two checkouts whose chain digests differ show which outputs
moved.  The last line is one JSON object of the digests above but ``synth``,
the per-file ones under ``"files"``.  Only the inputs are seeded, so equal
digests from two checkouts mean equal outputs.
"""

import argparse
import dataclasses
import fnmatch
import hashlib
import importlib
import importlib.util
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

NOISE_SEEDS = (1, 7, 1431)
CHAIN_SEEDS = (1, 7, 11)
NEAR_LOCK_CAPTURES = 50
SYNTH_SEEDS = (0, 1)
SYNTH_RATES_HZ = (100.0, 240.0)
DEVIATION_SEEDS = (7, 11)
DEVIATION_BREAKS = tuple(k / 20 for k in range(1, 20))
OUTPUT_FILES = ("fused.json", "part.aml", "stack.aml", "program.txt", "report.json", "capture*/fused.json")


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


def chain(pf, workloads, spec) -> tuple[str, dict[str, str]]:
    """The digest of every file in the work directory, and one per name in ``OUTPUT_FILES``."""
    h, per_file = hashlib.sha256(), {name: hashlib.sha256() for name in OUTPUT_FILES}
    for seed in CHAIN_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            wl = workloads.ChainWorkload(spec, seed, work, pf.cli.main)
            wl.op()
            wl.quality_pass()
            for f in sorted(p for p in work.rglob("*") if p.is_file()):
                rel = str(f.relative_to(work))
                entry = rel.encode() + b"\0" + f.read_bytes()
                h.update(entry)
                for name in OUTPUT_FILES:
                    if fnmatch.fnmatchcase(rel, name):
                        per_file[name].update(entry)
    return h.hexdigest(), {name: d.hexdigest() for name, d in per_file.items()}


def synth(pf) -> str:
    spec = importlib.util.spec_from_file_location("noise_study", Path(__file__).with_name("noise_study.py"))
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    truths = (study.make_truth(), study.make_circle())
    h = hashlib.sha256()
    grid = itertools.product((0.0, 1.0, 2.0), (0.0, 0.5, 1.0, 2.0), (0.0, 0.02), truths, SYNTH_RATES_HZ, SYNTH_SEEDS)
    for xy, orient, spike, truth, rate, seed in grid:
        model = pf.TrackerErrorModel(z_bias_max=60.0, xy_noise_sigma=xy, orient_noise_sigma=orient,
                                     spike_rate=spike, seed=seed)
        h.update(pf.format_demo_csv(pf.synth_demo(truth, model, rate)))
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


def deviation(pf, workloads) -> str:
    h = hashlib.sha256()
    for seed in DEVIATION_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            workloads.ChainWorkload(workloads.CHAIN_SPECS["stack_dense"], seed, work, pf.cli.main).op()
            nominal = pf.fused_path_from_json((work / "fused.json").read_bytes())
            executed = pf.fused_path_from_json((work / "executed.json").read_bytes())
        ex = executed.positions
        u = np.arange(5 * (len(ex) - 1) + 1) / 5.0  # four more points between each two
        centre = nominal.positions.mean(axis=0)
        cases = {
            "chain": ex,
            "far150": ex + [0.0, 0.0, 150.0],
            "centre": centre + 1e-3 * (ex - centre),
            "dense": np.column_stack([np.interp(u, np.arange(len(ex)), ex[:, c]) for c in range(3)]),
        }
        for name, pos in cases.items():
            path = pf.FusedPath(pos, np.zeros_like(pos), np.full(len(pos), 100.0), executed.frame, executed.closed)
            report = pf.deviation_report(path, nominal, DEVIATION_BREAKS)
            h.update(f"{seed} {name}".encode() + b"\0" + report.to_json().encode())
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

    specs = workloads.CHAIN_SPECS
    chains = {
        "capture_long": chain(pf, workloads, specs["capture_long"]),
        "stack_dense": chain(pf, workloads, specs["stack_dense"]),
        "open_stack": chain(pf, workloads, dataclasses.replace(specs["capture_long"], layers=3)),
    }
    digests = {
        "noise_sweep": noise_sweep(pf, workloads),
        "capture_long": chains["capture_long"][0],
        "stack_dense": chains["stack_dense"][0],
        "near_lock": near_lock(pf),
        "open_stack": chains["open_stack"][0],
        "deviation": deviation(pf, workloads),
    }
    for name, digest in {**digests, "synth": synth(pf)}.items():
        print(f"{name:13s} {digest}")
    files = {workload: per_file for workload, (_, per_file) in chains.items()}
    for workload, per_file in files.items():
        for name, digest in per_file.items():
            print(f"{workload + ' ' + name:33s} {digest}")
    print(json.dumps({**digests, "files": files}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
