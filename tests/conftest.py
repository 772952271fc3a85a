import os
from pathlib import Path

import numpy as np
import pytest

import pathfuse
from pathfuse import (
    Frame,
    FusedPath,
    Layer,
    PathMLDocument,
    ProcessParameters,
    Track,
)


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


def child_env():
    """Environment for a child Python process that imports this checkout's pathfuse."""
    paths = [str(Path(pathfuse.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
