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
  and 40 points within 1 um of the centre of a regular 5,000-gon of radius
  300 mm (``gon5000``), each of which keeps more point-segment pairs than one
  slice of the search holds;
* ``synth``: ``format_demo_csv`` of ``synth_demo`` captures of
  ``noise_study.py``'s line and circle at 100 and 240 Hz, two seeds for each of
  the study's 24 cells; the truth and the rate change every two captures, so
  the first capture of each pair samples its truth afresh and the second reads
  the traversal ``synth_demo`` kept;
* ``validate``: the violation lines ``pathml validate`` prints for
  ``validate_path`` of the chain's ``part.aml`` and ``stack.aml``, for
  ``capture_long`` and ``stack_dense`` at seeds 1, 7 and 11, under limits of the
  smallest positive float, so that every nonzero step, turn, reach and speed
  is printed;
* ``readers``: the outcome of each reader on a seeded corpus of byte-mutated
  inputs, each read as ``bytes`` and as ``str``: the value bits, or the
  exception's type, message and line.  ``parse_demo`` reads 7,000 captures,
  ``parse_cad`` 4,000 CSV files with directives and 3,000 JSON files, and
  ``fused_path_from_json`` and ``cli.load_calibration`` 3,000 files each;
* ``pathml``: the outcome of ``parse_xml`` on 3,000 byte-mutated copies of
  two documents ``write_xml`` made, each read as ``bytes`` and as ``str``
  (where undecodable bytes become lone surrogates): the document's names,
  process, indices, flags and point bits, or the exception's type, message
  and line;
* ``capture``: the ``noise_sweep`` and ``near_lock`` digests, taken again with
  each capture fused by ``fuse_capture`` in one call, hashed together.  The
  script exits 1, after printing every line, when it differs from the same
  hash of the two digests above, whose captures go through ``filter_outliers``
  then ``fuse``;
* ``nearest``: the segment and fraction bits ``cad.nearest_segments`` gives
  each executed point of the ``deviation`` cases, so that equal digests land
  every point on the same segment at the same place; ``absent`` for a
  checkout that has no such search.

Then, for each chain workload, one sha256 per output file name over the same
seeds (``OUTPUT_FILES``; ``capture*/fused.json`` are the quality pass's fused
captures), so that two checkouts whose chain digests differ show which outputs
moved.  The last line is one JSON object of the digests above but ``synth``,
``validate``, ``readers``, ``pathml``, ``capture`` and ``nearest``, the per-file
ones under ``"files"``.  Only the inputs are seeded, so equal digests from two
checkouts mean equal outputs.
"""

import argparse
import dataclasses
import fnmatch
import hashlib
import importlib
import importlib.util
import itertools
import json
import random
import re
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

NOISE_SEEDS = (1, 7, 1431)
CHAIN_SEEDS = (1, 7, 11)
NEAR_LOCK_CAPTURES = 50
SYNTH_SEEDS = (0, 1)
SYNTH_RATES_HZ = (100.0, 240.0)
DEVIATION_SEEDS = (7, 11)
DEVIATION_BREAKS = tuple(k / 20 for k in range(1, 20))
READER_SEED = 31
READER_CASES = {"capture": 7000, "cad_csv": 4000, "cad_json": 3000, "fused_json": 3000, "calibration": 3000}
# What a mutation inserts, or puts in place of a token: field and line breaks,
# numbers each reader refuses or takes, directives, BOMs, bytes that are not
# UTF-8 and JSON values of every type.
READER_TOKENS = (
    b",", b"\n", b"\r\n", b"\r", b" ", b"\t", b"\v", b"", b"0", b"-1", b"0.5", b"-0", b"1e999", b"nan", b"-inf",
    b"1_0", b"\xd9\xa1", b"\xff", b"\xef\xbb\xbf", b"# closed=true", b"#Closed = FALSE", b"# loop", b"x",
    b"true", b"null", b'"1"', b"[]", b"{}", b"[1, 2, 3]", b"NaN", b"Infinity", b"1e400", b"9" * 400,
)
_READER_TOKEN = re.compile(rb'-?[0-9][0-9.eE+-]*|true|false|null|"[^"\n]*"|[\[\]{}]')
PATHML_CASES = 3000
# The same for PathML: markup, entities, names, numbers in and out of the
# writer's form (which keep the file in its layout), process types, an encoding
# declaration, and bytes that are not UTF-8 or not XML.
PATHML_TOKENS = (
    b"<", b">", b"&", b"&amp;", b"&#13;", b"&#0;", b'"', b"\n", b"\r\n", b"\r", b" ", b"\t", b"", b"\x00", b"\x01",
    b"<Value>", b"</Value>", b"</InternalElement>", b'<Attribute Name="Index"><Value>1</Value></Attribute>',
    b"<!-- note -->", b'<?xml version="1.0" encoding="latin-1"?>', b"0", b"-1", b"1e999", b"nan", b"1_0",
    b"\xd9\xa1", b"0.000000", b"-0.000000", b"1.500000", b"-12.250000", b"1000000.000000", b"9" * 30 + b".000000",
    b"true", b"FALSE", b"x", b"welding", b"other", b"Layer_0", b"Track_0", b"ProcessType", b"X_mm",
    b"Velocity_mm_s", b"\xc3\xa9", b"\xff", b"\xed\xa0\x80", b"\xef\xbb\xbf",
)
_PATHML_TOKEN = re.compile(rb'-?[0-9][0-9.]*|"[^"\n]*"|[A-Za-z_][A-Za-z_0-9]*|[<>]')
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


def joined(*digests: str) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def capture(pf, workloads) -> str:
    """``joined`` ``noise_sweep`` and ``near_lock`` digests of ``pf`` with each capture fused by
    ``fuse_capture``: they call ``filter_outliers`` then ``fuse``, here the capture as it is
    and ``fuse_capture``."""
    one_call = types.SimpleNamespace(**{**vars(pf), "filter_outliers": lambda demo: demo, "fuse": pf.fuse_capture})
    return joined(noise_sweep(one_call, workloads), near_lock(one_call))


def deviation_cases(pf, workloads) -> list[tuple[str, object, object]]:
    """(label, executed path, nominal path) of each ``deviation`` case."""
    out = []
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
            out.append((f"{seed} {name}", path, nominal))
    a = np.arange(5000) * (2.0 * np.pi / 5000)
    ring = np.column_stack([300.0 * np.cos(a), 300.0 * np.sin(a), np.zeros(5000)])
    nominal = pf.FusedPath(ring, np.zeros_like(ring), np.full(5000, 100.0), pf.Frame.R, True)
    pos = np.random.default_rng(5000).uniform(-1e-3, 1e-3, (40, 3))
    out.append(("gon5000", pf.FusedPath(pos, np.zeros_like(pos), np.full(40, 100.0), pf.Frame.R), nominal))
    return out


def deviation(pf, cases) -> str:
    h = hashlib.sha256()
    for label, path, nominal in cases:
        h.update(label.encode() + b"\0" + pf.deviation_report(path, nominal, DEVIATION_BREAKS).to_json().encode())
    return h.hexdigest()


def nearest(pf, cases) -> str:
    """The digest of where ``cad.nearest_segments`` lands each executed point of ``cases`` on its
    nominal polyline, or ``absent`` for a checkout without that search."""
    cad = importlib.import_module("pathfuse.cad")
    if not hasattr(cad, "nearest_segments"):
        return "absent"
    h = hashlib.sha256()
    for label, path, nominal in cases:
        _, segment, fraction = cad.nearest_segments(path.positions, cad.traverse(nominal.positions, nominal.closed))
        h.update(label.encode() + b"\0" + segment.astype(np.int64).tobytes() + fraction.tobytes())
    return h.hexdigest()


def validate(pf, workloads) -> str:
    tiny = 5e-324  # the smallest positive float
    limits = pf.PathLimits(max_step_mm=tiny, max_speed_mm_s=tiny, workspace_radius_mm=tiny, max_orient_step_deg=tiny)
    h = hashlib.sha256()
    for name, seed in itertools.product(("capture_long", "stack_dense"), CHAIN_SEEDS):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            workloads.ChainWorkload(workloads.CHAIN_SPECS[name], seed, work, pf.cli.main).op()
            for aml in ("part.aml", "stack.aml"):
                report = pf.validate_path(pf.parse_xml((work / aml).read_bytes()), limits)
                lines = [f"{name} {seed} {aml}"] + [str(v) for v in report.document + report.violations]
                h.update("\n".join(lines).encode() + b"\n")
    return h.hexdigest()


def _mutated(rng, base: bytes, inserts=READER_TOKENS, token=_READER_TOKEN) -> bytes:
    """``base`` after one to three mutations: a byte deleted, one of ``inserts`` inserted or
    put in place of a ``token`` match (a number, string, literal or bracket), or a line repeated."""
    data = base
    for _ in range(rng.randint(1, 3)):
        op, k = rng.randrange(5), rng.randrange(len(data) + 1)
        if op == 0:
            data = data[:k] + data[k + 1 :]
        elif op == 1:
            data = data[:k] + rng.choice(inserts) + data[k:]
        elif op < 4 and (tokens := list(token.finditer(data))):
            m = rng.choice(tokens)
            data = data[: m.start()] + rng.choice(inserts) + data[m.end() :]
        else:
            lines = data.split(b"\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            data = b"\n".join(lines[:j] + [lines[i]] + lines[j:])
    return data


def _reader_bases(rng) -> dict[str, list[bytes]]:
    """The inputs each corpus mutates, written here so that every checkout reads the same bytes."""
    def table(n, width):
        return [[round(rng.uniform(-500.0, 500.0), rng.randrange(7)) for _ in range(width)] for _ in range(n)]

    def csv(header, rows, sep=",", eol="\n"):
        return (header + eol + "".join(sep.join(map(repr, row)) + eol for row in rows)).encode()

    def capture(n, sep=",", eol="\n"):
        rows = [[round(0.004 * i + rng.uniform(0.0, 0.002), 6), *row] for i, row in enumerate(table(n, 6))]
        return csv("t_s,x_mm,y_mm,z_mm,az_deg,el_deg,roll_deg", rows, sep, eol)

    def fused(frame, closed, n):
        keys = ("x_mm", "y_mm", "z_mm", "rx_deg", "ry_deg", "rz_deg", "v_mm_s")
        points = [dict(zip(keys, [*row, rng.uniform(0.0, 100.0)])) for row in table(n, 6)]
        return json.dumps({"frame": frame, "closed": closed, "points": points}, indent=1).encode()

    cad_header = "x_mm,y_mm,z_mm"
    return {
        "capture": [capture(12), capture(6, ", ", "\r\n"), b"\xef\xbb\xbf" + capture(3) + b"\n \t\n"],
        "cad_csv": [csv(cad_header, table(8, 3)) + b"# closed=true\n",
                    csv(cad_header, table(5, 3), " ,\t", "\r\n").replace(b"\r\n", b"\r\n#Closed = FALSE\r\n\r\n", 1),
                    b"x_mm,y_mm,z_mm\n 1 ,\t2, 3e2 \n-.5,+4.,5E-3\n# closed=true\n0,0,1\n"],
        "cad_json": [json.dumps({"waypoints": table(6, 3), "closed": True}).encode(),
                     json.dumps({"waypoints": table(3, 3)}, indent=1).encode()],
        "fused_json": [fused("R", False, 5), fused("S", True, 3)],
        "calibration": [json.dumps({key: {"translation_mm": row[:3], "rotation_deg_fixed_xyz": row[3:]}
                                    for key, row in zip(("t_r_f", "t_f_s"), table(2, 6))}, indent=1).encode()],
    }


def readers(pf) -> str:
    def values(result):
        if isinstance(result, pf.PoseSeries):
            return [result.t, result.positions, result.orientations]
        if isinstance(result, pf.CadPath):
            return [result.waypoints, [result.closed]]
        if isinstance(result, pf.FusedPath):
            return [result.positions, result.orientations, result.speeds, [result.closed, result.frame == pf.Frame.R]]
        return [result.t_r_f.rotation, result.t_r_f.translation, result.t_f_s.rotation, result.t_f_s.translation]

    read = {"capture": pf.parse_demo, "cad_csv": pf.parse_cad, "cad_json": pf.parse_cad,
            "fused_json": pf.fused_path_from_json, "calibration": pf.cli.load_calibration}
    rng = random.Random(READER_SEED)
    h = hashlib.sha256()
    for name, bases in _reader_bases(rng).items():
        for case in range(READER_CASES[name]):
            data = _mutated(rng, bases[case % len(bases)])
            for given in (data, data.decode("utf-8", "surrogateescape")):
                try:
                    _update(h, *values(read[name](given)))
                except (pf.PathfuseError, ValueError) as e:
                    outcome = f"{type(e).__name__}\0{e}\0{getattr(e, 'line', None)}"
                    h.update(outcome.encode(errors="surrogateescape"))
    return h.hexdigest()


def pathml(pf) -> str:
    rng = random.Random(READER_SEED)

    def points(n):
        return [[round(rng.uniform(-900.0, 900.0), 6) for _ in range(6)] + [round(rng.uniform(0.0, 90.0), 6)]
                for _ in range(n)]

    weld = pf.ProcessParameters("welding", wire_feed_rate=8.5, layer_height=1.25, extra=(("Gas", "argon"),))
    glue = pf.ProcessParameters("adhesive", glue_flow_rate=12.0, extra={"Bead": "\u00e9 3 mm"})
    bases = [
        pf.write_xml(pf.PathMLDocument("cell 7", weld, tuple(
            pf.Layer(f"Layer_{i}", i, (pf.Track("Track_0", points(3), True), pf.Track("Track_1", points(2), False)))
            for i in range(2)
        ))),
        pf.write_xml(pf.PathMLDocument("glass", glue, (
            pf.Layer("Layer_0", 0, (pf.Track("Track_0", points(5), True),)),
        ))),
    ]
    h = hashlib.sha256()
    for case in range(PATHML_CASES):
        data = _mutated(rng, bases[case % len(bases)], PATHML_TOKENS, _PATHML_TOKEN)
        for given in (data, data.decode("utf-8", "surrogateescape")):
            try:
                doc = pf.parse_xml(given)
            except pf.PathfuseError as e:
                h.update(f"{type(e).__name__}\0{e}\0{getattr(e, 'line', None)}".encode(errors="surrogateescape"))
                continue
            h.update(f"{doc.project_name}\0{doc.process!r}".encode(errors="surrogateescape"))
            for layer in doc.layers:
                h.update(f"{layer.name}\0{layer.index}".encode(errors="surrogateescape"))
                for track in layer.tracks:
                    h.update(f"{track.name}\0{track.tool_active}".encode(errors="surrogateescape"))
                    _update(h, track.points)
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
    cases = deviation_cases(pf, workloads)
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
        "deviation": deviation(pf, cases),
    }
    one_call = capture(pf, workloads)
    for name, digest in {**digests, "synth": synth(pf), "validate": validate(pf, workloads),
                          "readers": readers(pf), "pathml": pathml(pf), "capture": one_call,
                          "nearest": nearest(pf, cases)}.items():
        print(f"{name:13s} {digest}")
    files = {workload: per_file for workload, (_, per_file) in chains.items()}
    for workload, per_file in files.items():
        for name, digest in per_file.items():
            print(f"{workload + ' ' + name:33s} {digest}")
    print(json.dumps({**digests, "files": files}))
    if one_call != joined(digests["noise_sweep"], digests["near_lock"]):
        print("capture: fuse_capture's output differs from filter_outliers then fuse", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
