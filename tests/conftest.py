import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pathfuse
from pathfuse import (
    Frame,
    FusedPath,
    Layer,
    PathLimits,
    PathMLDocument,
    PoseSeries,
    ProcessParameters,
    Track,
    emit_program,
    expand_layers,
    validate_path,
)

# limits no move between finite points breaks: a relative rotation is at most 180 degrees
NO_LIMITS = PathLimits(max_step_mm=1e300, max_speed_mm_s=1e300, workspace_radius_mm=1e300, max_orient_step_deg=180.0)


def emitted(doc):
    """The program of ``doc``, whose moves pass any limit: only its document rules can refuse it."""
    return emit_program(validate_path(doc, NO_LIMITS))


@pytest.fixture
def line_fused_s():
    """Straight-line path along x in the receiver frame, constant 100 mm/s."""
    n = 5
    pos = np.column_stack([np.linspace(0.0, 400.0, n), np.zeros(n), np.zeros(n)])
    ang = np.column_stack([np.zeros(n), np.zeros(n), np.linspace(0.0, np.pi / 2, n)])
    return FusedPath(pos, ang, np.full(n, 100.0), Frame.S)


def make_doc(
    xs=(0.0, 10.0, 20.0),
    process=None,
    project="part",
    tool_active=True,
    velocity=50.0,
):
    """Small valid single-layer document along the x axis."""
    if process is None:
        process = ProcessParameters("other", layer_height=2.0)
    points = [(x, 0.0, 0.0, 0.0, 0.0, 0.0, velocity) for x in xs]
    return PathMLDocument(
        project, process, (Layer("Layer_0", 0, (Track("Track_0", points, tool_active),)),)
    )


def traced_peak(call):
    """Bytes ``call()`` allocates at its peak, by tracemalloc, and its result."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def long_capture(n=28_011, rate=240.0, seed=27):
    """A capture as long as the benchmark's longest, and its CAD waypoints: a noisy
    1.5 m weave at 240 Hz with 100 mm spikes on 2 % of the samples, and 97 points on it."""

    def weave(u):
        return np.column_stack([1500.0 * u, 40.0 * np.sin(20.0 * np.pi * u), np.zeros_like(u)])

    rng = np.random.default_rng(seed)
    s = np.arange(n) / (n - 1)
    pos = weave(s) + rng.normal(0.0, 2.0, (n, 3))
    pos[rng.random(n) < 0.02, 2] += 100.0
    turns = np.column_stack([0.8 * s, 0.3 * np.sin(3.0 * np.pi * s), 0.2 + 0.1 * np.cos(1.4 * np.pi * s)])
    return PoseSeries(np.arange(n) / rate, pos, turns + rng.normal(0.0, 0.02, (n, 3))), weave(np.linspace(0.0, 1.0, 97))


def child_env():
    """Environment for a child Python process that imports this checkout's pathfuse."""
    paths = [str(Path(pathfuse.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def shared_column_docs():
    """(id, document) pairs whose tracks repeat columns, bit for bit or nearly.

    Expanded stacks of a closed loop (every layer shares all but Z) and of an
    open one (odd layers reversed, speeds rolled), and a hand-built document
    whose tracks share columns, share them reversed, or differ from them only
    in the sign of a zero.
    """
    process = ProcessParameters("other", layer_height=2.0)
    rng = np.random.default_rng(20)
    n = 40
    theta = np.linspace(0.0, 2.0 * np.pi, n)
    ring = np.column_stack([
        150.0 * np.cos(theta), 90.0 * np.sin(theta), np.full(n, 12.5),
        rng.uniform(-2.0, 2.0, n), np.full(n, -0.0), np.degrees(theta) - 180.0, rng.uniform(20.0, 80.0, n),
    ])
    ring[-1, :3] = ring[0, :3]  # closed: the last position is the first
    closed = PathMLDocument("loop", process, (Layer("Layer_0", 0, (Track("Track_0", ring, True),)),))
    line = ring[:12].copy()
    line[:, 2] = np.linspace(-1e-7, 1e-7, 12)  # Z -0.000000 on one side of zero, 0.000000 on the other
    bead = PathMLDocument("bead", process, (Layer("Layer_0", 0, (
        Track("Track_0", line, True), Track("Track_1", ring[12:20], False))),))
    ry_plus = line.copy()
    ry_plus[:, 4] = 0.0  # RY +0.0 where the other tracks hold -0.0
    lifted = line.copy()
    lifted[:, 2] += 2.0
    grid = PathMLDocument("grid", process, (
        Layer("L2", 2, (Track("same", line, True), Track("reversed", line[::-1], False))),
        Layer("L0", 0, (Track("signed", ry_plus, True), Track("lifted", lifted, True))),
        Layer("L1", 0, (Track("again", line, False), Track("slice", line[3:5], True))),
    ))
    return [
        ("closed_stack_6", expand_layers(closed, 6, (0.0, 0.0, 1.0))),
        ("open_serpentine_3", expand_layers(bead, 3, (0.0, 0.0, 1.0))),
        ("hand_built", grid),
    ]


def plain_layers(doc):
    """A document's layers as (name, index, [(name, tool_active, points)]), for the oracles."""
    return [(layer.name, layer.index, [(t.name, t.tool_active, t.points) for t in layer.tracks])
            for layer in doc.layers]
