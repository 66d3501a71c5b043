"""Plain-text file formats for occupancy grids and MI maps, plus PGM export.

Grid file: first line ``H W resolution``, then H lines of W space-separated
integer levels in 0..100.  MI map file: first line ``H W``, then H lines of
W finite decimal reals.  Only blank lines may follow the H rows.  Values
are written with 17 significant digits so a write/read round trip
reproduces the exact float64 bits.
"""

import math

import numpy as np

from .grid import MIMap, OccupancyGrid


class GridFormatError(ValueError):
    """Parse failure; message names the file, line, and offending field."""


def _fail(path, line_no, msg):
    raise GridFormatError(f"{path}:{line_no}: {msg}")


def _reject_trailing(path, lines, height):
    """Only blank lines may follow the header and the H data rows."""
    for line_no, line in enumerate(lines[1 + height:], start=2 + height):
        if line.strip():
            _fail(path, line_no, f"expected {height} data rows, found more")


def read_grid(path) -> OccupancyGrid:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        _fail(path, 1, "empty file, expected header 'H W resolution'")
    header = lines[0].split()
    if len(header) != 3:
        _fail(path, 1, f"malformed header {lines[0]!r}, expected 'H W resolution'")
    try:
        height, width = int(header[0]), int(header[1])
        resolution = float(header[2])
    except ValueError:
        _fail(path, 1, f"malformed header {lines[0]!r}, expected 'H W resolution'")
    if height < 1 or width < 1:
        _fail(path, 1, f"grid dims must be positive, got {height}x{width}")
    if not 0 < resolution < math.inf:
        _fail(path, 1, f"resolution must be positive and finite, got {resolution}")
    if len(lines) < 1 + height:
        _fail(path, len(lines), f"expected {height} data rows, found {len(lines) - 1}")
    levels = np.empty((height, width), dtype=np.uint8)
    for r in range(height):
        fields = lines[1 + r].split()
        if len(fields) != width:
            _fail(path, 2 + r, f"expected {width} values, found {len(fields)}")
        for c, tok in enumerate(fields):
            try:
                val = int(tok)
            except ValueError:
                _fail(path, 2 + r, f"field {c + 1}: not an integer: {tok!r}")
            if not 0 <= val <= 100:
                _fail(path, 2 + r, f"field {c + 1}: level {val} outside [0, 100]")
            levels[r, c] = val
    _reject_trailing(path, lines, height)
    return OccupancyGrid(levels, resolution)


def write_grid(grid: OccupancyGrid, path) -> None:
    height, width = grid.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{height} {width} {grid.resolution:.17g}\n")
        for row in grid.levels:
            fh.write(" ".join(str(int(v)) for v in row))
            fh.write("\n")


def read_mi_map(path) -> MIMap:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        _fail(path, 1, "empty file, expected header 'H W'")
    header = lines[0].split()
    if len(header) != 2:
        _fail(path, 1, f"malformed header {lines[0]!r}, expected 'H W'")
    try:
        height, width = int(header[0]), int(header[1])
    except ValueError:
        _fail(path, 1, f"malformed header {lines[0]!r}, expected 'H W'")
    if height < 1 or width < 1:
        _fail(path, 1, f"map dims must be positive, got {height}x{width}")
    if len(lines) < 1 + height:
        _fail(path, len(lines), f"expected {height} data rows, found {len(lines) - 1}")
    values = np.empty((height, width), dtype=np.float64)
    for r in range(height):
        fields = lines[1 + r].split()
        if len(fields) != width:
            _fail(path, 2 + r, f"expected {width} values, found {len(fields)}")
        try:
            row = [float(tok) for tok in fields]
        except ValueError:
            _fail(path, 2 + r, "non-numeric value in row")
        for c, val in enumerate(row):
            if not math.isfinite(val):
                _fail(path, 2 + r, f"field {c + 1}: non-finite value {fields[c]!r}")
        values[r] = row
    _reject_trailing(path, lines, height)
    return MIMap(values)


def write_mi_map(mi: MIMap, path) -> None:
    height, width = mi.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{height} {width}\n")
        for row in mi.values:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def write_pgm(values: np.ndarray, path) -> None:
    """8-bit binary PGM of a min-max normalized value array."""
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        scaled = (arr - lo) * (255.0 / (hi - lo))
    else:
        scaled = np.zeros_like(arr)
    pix = np.clip(np.rint(scaled), 0, 255).astype(np.uint8)
    height, width = pix.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
