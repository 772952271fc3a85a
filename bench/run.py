#!/usr/bin/env python3
"""Benchmark of the pathfuse pipeline on seeded workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload capture_long --seed 1 --seconds 27 --trace 0

Each workload is a closed loop with one client in this process: the next
operation starts when the previous one and its output checks are done.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced operations and prints the per-layer metrics of the traced ones.
The last line of standard output is one JSON object; the lines before it are
the same numbers for people.  See bench/NOTES.md for why the workloads and
metrics are what they are.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports, inputs, warm-up

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; set-up probes inherit it

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("capture_long", "stack_dense", "noise_sweep")
SETUP_SAMPLES = 3  # set-ups per run, each in a fresh process, whose median is setup_s
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_pathfuse():
    """Import pathfuse from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pathfuse" / "__init__.py").is_file():
        sys.exit(f"bench: no pathfuse sources at {src}")
    sys.path.insert(0, str(src))
    import pathfuse
    import pathfuse.cli

    if Path(pathfuse.__file__).resolve().parent != (src / "pathfuse").resolve():
        sys.exit(f"bench: imported pathfuse from {pathfuse.__file__}, not from {src}")
    return pathfuse


def make_workload(name: str, seed: int, work: Path, pf, spec=None):
    if name == "noise_sweep":
        return workloads.NoiseWorkload(seed, pf)
    return workloads.ChainWorkload(spec or workloads.CHAIN_SPECS[name], seed, work, pf.cli.main)


def setup(name: str, seed: int, work: Path, spec=None):
    """Import, generate inputs, and run one checked warm-up operation.

    Returns (pathfuse, workload, warm-up error or None): a failed warm-up is
    counted as a failed operation, not raised.
    """
    pf = import_pathfuse()
    wl = make_workload(name, seed, work, pf, spec)
    try:
        wl.op()
        wl.check()
    except Exception as e:
        return pf, wl, f"{type(e).__name__}: {e}"
    return pf, wl, None


def own_setup_s() -> tuple[float, float]:
    """(scaled, raw) seconds since this process started, scaled by two reference samples taken now."""
    raw = time.perf_counter() - _T0
    ref = reference.Reference()
    ref.sample()
    ref.sample()
    return raw * reference.REF_NOMINAL_MS / statistics.mean(ref.ms), raw


def probe_setup_s(name: str, seed: int, work: Path, own: tuple[float, float]) -> tuple[float, float]:
    """Medians of (scaled, raw) set-up times: this process's and SETUP_SAMPLES - 1 fresh ones."""
    times = [own]
    for i in range(1, SETUP_SAMPLES):
        probe_dir = work / f"probe{i}"
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        scaled, raw = out.stdout.split()[-2:]
        times.append((float(scaled), float(raw)))
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times)


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """Value, percentile and op count of the highest percentile with >= 10 ops beyond it.

    With 10 or fewer ops no such percentile exists; the maximum is reported.
    """
    s = sorted(times_ms)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def measure(wl, seconds: float, tracer=None, log=sys.stderr) -> dict:
    """Closed loop for ``seconds``: run, time and check operations.

    With a tracer, every second operation is traced.  Each operation starts
    from a collected heap, so the garbage collector's work inside an operation
    is that operation's own.  The reference workload is timed between ops
    every REF_EVERY_S seconds and once at the end.  Returns the (start, wall
    seconds) of untraced and traced ops, the reference, attempts and failures.
    """
    ref = reference.Reference()
    plain, traced, failed, attempted = [], [], 0, 0
    min_ops = 1 if tracer is None else 2  # a traced run needs one op of each kind
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start < seconds:
        trace_this = tracer is not None and attempted % 2 == 1
        attempted += 1
        ref.sample_if_due()
        gc.collect()
        try:
            if trace_this:
                with tracer.op() as span:
                    t0 = time.perf_counter()
                    try:
                        wl.op(span)
                    finally:
                        traced.append((t0, time.perf_counter() - t0))
            else:
                t0 = time.perf_counter()
                try:
                    wl.op()
                finally:
                    plain.append((t0, time.perf_counter() - t0))
            wl.check()
        except Exception as e:  # any failure of one op is counted, the run goes on
            failed += 1
            if failed <= 3:
                print(f"bench: op {attempted} failed: {type(e).__name__}: {e}", file=log)
    ref.sample()
    return {"plain": plain, "traced": traced, "ref": ref, "attempted": attempted, "failed": failed}


def scaled_ms(ops: list, ref) -> list[float]:
    """Op wall times in ms, scaled to the machine speed REF_NOMINAL_MS stands for."""
    return [dur * 1000.0 * ref.scale(t0, t0 + dur) for t0, dur in ops]


def end_to_end(res: dict, wl, setup_s: tuple[float, float]) -> tuple[dict, list[str]]:
    ms = scaled_ms(res["plain"], res["ref"])
    raw = [dur * 1000.0 for _, dur in res["plain"]]
    ok = res["attempted"] - res["failed"]
    tail_ms, tail_pct, n = tail(ms)
    # with no checked output at all, every orientation counts as the worst possible
    errors = wl.errors or [np.array([180.0])]
    err = np.concatenate(errors)
    capture_max = [float(np.max(e)) for e in errors]
    metrics = {
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ops_per_s": (ok * 1000.0 / sum(ms), "1/s"),
        "setup_s": (setup_s[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (ok / res["attempted"], "ratio"),
        "orient_err_mean_deg": (float(np.mean(err)), "deg"),
        "orient_err_max_deg": (statistics.mean(capture_max), "deg"),
    }
    ref_ms = res["ref"].ms
    notes = [
        f"op times are scaled to a {reference.REF_NOMINAL_MS:g} ms reference; unscaled: "
        f"p50 {statistics.median(raw):.4f} ms, tail {tail(raw)[0]:.4f} ms, {ok * 1000.0 / sum(raw):.4f} ops/s, "
        f"setup {setup_s[1]:.4f} s; "
        f"reference p50 {statistics.median(ref_ms):.3f} ms over {len(ref_ms)} samples "
        f"(min {min(ref_ms):.3f}, max {max(ref_ms):.3f})",
        f"op_tail_ms is p{tail_pct:.1f} of {n} ops (10 ops beyond it)" if n > 10
        else f"op_tail_ms is the maximum of {n} ops (too few for a percentile with 10 beyond)",
        f"fail_ratio {res['failed'] / res['attempted']:.6f} ({res['failed']} of {res['attempted']} ops failed)",
        f"orientation errors over {len(err)} fused points of {len(capture_max)} captures; "
        f"orient_err_max_deg is the mean of the per-capture maxima, the largest is {max(capture_max):.4f} deg",
    ]
    return metrics, notes


def per_layer(res: dict, tracer) -> tuple[dict, list[str]]:
    units = {"self_ms": "ms", "calls": "count", "ratio": "ratio", "bytes": "bytes"}
    metrics = {k: (v, units.get(k.rsplit(".", 1)[1], "count")) for k, v in tracer.layer_metrics().items()}
    traced_p50 = statistics.median(scaled_ms(res["traced"], res["ref"]))
    metrics["trace.overhead_ms"] = (traced_p50 - statistics.median(scaled_ms(res["plain"], res["ref"])), "ms")
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_ms"))
    walls = [dur * 1000.0 for _, dur in res["traced"]]
    notes = [
        f"{len(walls)} traced and {len(res['plain'])} untraced ops; traced op mean {statistics.mean(walls):.3f} ms, "
        f"self times sum to {self_total:.3f} ms per op (unscaled wall time)",
        f"trace.overhead_ms compares op times scaled to a {reference.REF_NOMINAL_MS:g} ms reference",
    ]
    return metrics, notes


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, spec=None, probe=True) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    ``spec`` overrides the CLI workload's size and ``probe=False`` reports
    this process's own set-up time alone (the self-tests do both).
    """
    pf, wl, failure = setup(name, seed, work / "main", spec)
    setup_s = own_setup_s()
    if probe and not trace:
        setup_s = probe_setup_s(name, seed, work, setup_s)
    tracer = spans.Tracer(pf) if trace else None
    res = measure(wl, seconds, tracer)
    if not trace:
        try:
            wl.quality_pass()
        except Exception as e:  # reported like a failed op: the run is not correct
            failure = failure or f"quality pass: {type(e).__name__}: {e}"
    if failure:
        res["attempted"] += 1
        res["failed"] += 1
        print(f"bench: set-up or quality pass failed: {failure}", file=sys.stderr)
    if trace:
        metrics, notes = per_layer(res, tracer)
        tracer.write(work.parent / f"trace-{name}-seed{seed}.json")
    else:
        metrics, notes = end_to_end(res, wl, setup_s)
    print(f"workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}; input sha256 "
          f"{hashlib.sha256(''.join(wl.digests).encode()).hexdigest()}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>14.4f} {unit}")
    for note in notes:
        print(f"  # {note}")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))  # a failed warm-up shows in the main run
        print("%.6f %.6f" % own_setup_s())
        return 0

    import_pathfuse()  # fail before any work when the sources are missing
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
