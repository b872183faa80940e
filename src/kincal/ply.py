"""Minimal ASCII PLY 1.0 point cloud writer."""

from __future__ import annotations

import itertools

import numpy as np

from . import textio
from .errors import DimensionError


def write_ply(path, points, colors=None):
    """Write an ASCII PLY with float x/y/z and optional uchar RGB.

    ``points`` is (N, 3); ``colors`` is (N, 3) uint8-compatible or None.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DimensionError(f"points must be (N, 3), got {points.shape}")
    if colors is not None:
        colors = np.asarray(colors, dtype=int)
        if colors.shape != points.shape:
            raise DimensionError("colors must match points one to one")
        if colors.min(initial=0) < 0 or colors.max(initial=0) > 255:
            raise DimensionError("color channels must lie in [0, 255]")

    header = ["ply", "format ascii 1.0", f"element vertex {points.shape[0]}",
              "property float x", "property float y", "property float z"]
    rows = textio.float_rows(points)
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
        rows = (f"{xyz} {r} {g} {b}" for xyz, (r, g, b) in zip(rows, colors.tolist()))
    textio.write_lines(path, itertools.chain(header, ["end_header"], rows))
