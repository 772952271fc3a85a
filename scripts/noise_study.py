#!/usr/bin/env python3
"""Sweep the tracker error model and measure what survives fusion.

For each error-model cell the study synthesizes a capture of a known truth
path, filters it, fuses it with the CAD polyline, and compares the fused path
against the truth.  There are two truths at 100 mm/s: a 400 mm line whose tool
turns 90 degrees about z, and a closed circle of 300 mm radius whose tool
turns with the tangent.  Positions are expected to stay pinned to the CAD
waypoints regardless of tracker error (that is the point of taking positions
from CAD); orientation error grows with orientation noise and is reported per
cell as the geodesic angle between the truth and fused rotations, and speed
error as the largest |v - 100| mm/s.
"""

import argparse
import sys

import numpy as np

from pathfuse import (
    CadPath,
    Frame,
    FusedPath,
    TrackerErrorModel,
    fuse_capture,
    synth_demo,
)
from pathfuse.geometry import rots_from_euler_zyx


def make_truth(n=9, length=400.0):
    pos = np.column_stack([np.linspace(0.0, length, n), np.zeros(n), np.zeros(n)])
    ang = np.column_stack([np.zeros(n), np.zeros(n), np.linspace(0.0, np.pi / 2, n)])
    return FusedPath(pos, ang, np.full(n, 100.0), Frame.S)


def make_circle(n=72, radius=300.0):
    """Closed truth: n waypoints on a circle, plus the explicit return to the first."""
    a = np.linspace(0.0, 2.0 * np.pi, n + 1)
    pos = np.column_stack([radius * np.cos(a), radius * np.sin(a), np.zeros(n + 1)])
    pos[-1] = pos[0]
    ang = np.column_stack([np.zeros(n + 1), np.zeros(n + 1), a])
    return FusedPath(pos, ang, np.full(n + 1, 100.0), Frame.S, closed=True)


def truths():
    """(name, truth, CAD path) of each truth the study sweeps."""
    line, circle = make_truth(), make_circle()
    return [
        ("line", line, CadPath(line.positions)),
        ("circle", circle, CadPath(circle.positions[:-1], closed=True)),
    ]


def geodesic_deg(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle in degrees of R_a^T R_b per row of fixed-axis (rx, ry, rz) angles.

    A raw Euler difference is wrong at the +/-180 degree wrap; this is not.
    """
    ra = rots_from_euler_zyx(a[:, ::-1])
    rb = rots_from_euler_zyx(b[:, ::-1])
    cos = (np.einsum("nij,nij->n", ra, rb) - 1.0) / 2.0  # trace(R_a^T R_b) = sum R_a * R_b
    return np.degrees(np.arccos(np.clip(cos, -1.0, 1.0)))


def one_cell(truth, cad, xy_sigma, orient_sigma, spike_rate, seeds, rate):
    orient_errs = []
    speed_err = 0.0
    positions_pinned = True
    for seed in seeds:
        model = TrackerErrorModel(
            z_bias_max=60.0,
            xy_noise_sigma=xy_sigma,
            orient_noise_sigma=orient_sigma,
            spike_rate=spike_rate,
            seed=seed,
        )
        fused = fuse_capture(cad, synth_demo(truth, model, rate))
        positions_pinned &= fused.positions.tobytes() == truth.positions.tobytes()
        orient_errs.append(float(np.max(geodesic_deg(truth.orientations, fused.orientations))))
        speed_err = max(speed_err, float(np.max(np.abs(fused.speeds - truth.speeds))))
    return float(np.mean(orient_errs)), float(np.max(orient_errs)), speed_err, positions_pinned


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5, help="captures per cell")
    ap.add_argument("--rate", type=float, default=100.0, help="capture rate in Hz")
    args = ap.parse_args()

    seeds = list(range(args.seeds))

    print(f"{args.seeds} captures per cell, {args.rate:g} Hz, z bias fixed at 60 mm\n")
    head = (
        f"{'truth':>6} {'xy sigma':>9} {'orient sigma':>13} {'spike rate':>11} | "
        f"{'orient err mean':>16} {'orient err max':>15} {'speed err':>12} {'positions':>10}"
    )
    print(head)
    print("-" * len(head))
    for name, truth, cad in truths():
        for xy in (0.0, 1.0, 2.0):
            for orient in (0.0, 0.5, 1.0, 2.0):
                for spike in (0.0, 0.02):
                    mean_err, max_err, speed_err, pinned = one_cell(
                        truth, cad, xy, orient, spike, seeds, args.rate
                    )
                    status = "pinned" if pinned else "DRIFTED"
                    print(
                        f"{name:>6} {xy:>7.1f} mm {orient:>9.1f} deg {spike:>11.2f} | "
                        f"{mean_err:>12.3f} deg {max_err:>11.3f} deg {speed_err:>7.3f} mm/s {status:>10}"
                    )
    print("\npositions 'pinned' means the fused waypoints are byte-identical to CAD")
    return 0


if __name__ == "__main__":
    sys.exit(main())
