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


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file.  A byte sequence that is not UTF-8
    fails with the file and the line it is on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        _fail(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text")


def _read_rows(path, what: str, form: str, parse_row, dtype, valid,
               check_header=None):
    """The H x W ``dtype`` array of a grid or map file, and its header
    fields after H and W, read as floats.

    ``form`` spells the header (``'H W resolution'`` or ``'H W'``) and
    ``what`` names the file's kind in the dims message.  After the dims
    check, ``check_header(path, *fields)`` checks the further fields; then
    each of the H rows must have W fields, and only blank lines may follow
    the H rows.  Once every row has W fields, one ``np.array`` parses all
    of them, with ``int()`` or ``float()`` as ``dtype`` asks, and
    ``valid(values)`` checks their range.  When that fails, the rows go
    through ``parse_row(path, line_no, fields)`` one at a time, which
    names the first bad row or field in file order.
    """
    lines = read_lines(path)
    if not lines:
        _fail(path, 1, f"empty file, expected header '{form}'")
    header = lines[0].split()
    malformed = f"malformed header {lines[0]!r}, expected '{form}'"
    if len(header) != len(form.split()):
        _fail(path, 1, malformed)
    try:
        height, width = int(header[0]), int(header[1])
        fields = [float(tok) for tok in header[2:]]
    except ValueError:
        _fail(path, 1, malformed)
    if height < 1 or width < 1:
        _fail(path, 1, f"{what} dims must be positive, got {height}x{width}")
    if check_header is not None:
        check_header(path, *fields)
    if len(lines) < 1 + height:
        _fail(path, len(lines), f"expected {height} data rows, found {len(lines) - 1}")
    rows = [line.split() for line in lines[1:1 + height]]
    values = None
    # no array sized by the header is made before every row has passed
    if all(len(row) == width for row in rows):
        try:
            values = np.array(rows, dtype=dtype)
        except (ValueError, OverflowError):
            pass
    if values is None or not valid(values):
        parsed = []
        for r, row in enumerate(rows):
            if len(row) != width:
                _fail(path, 2 + r, f"expected {width} values, found {len(row)}")
            parsed.append(parse_row(path, 2 + r, row))
        values = np.array(parsed, dtype=dtype)
    for line_no, line in enumerate(lines[1 + height:], start=2 + height):
        if line.strip():
            _fail(path, line_no, f"expected {height} data rows, found more")
    return values, fields


def _check_resolution(path, resolution):
    if not 0 < resolution < math.inf:
        _fail(path, 1, f"resolution must be positive and finite, got {resolution}")


def _level_row(path, line_no, fields):
    row = []
    for c, tok in enumerate(fields):
        try:
            val = int(tok)
        except ValueError:
            _fail(path, line_no, f"field {c + 1}: not an integer: {tok!r}")
        if not 0 <= val <= 100:
            _fail(path, line_no, f"field {c + 1}: level {val} outside [0, 100]")
        row.append(val)
    return row


def read_grid(path) -> OccupancyGrid:
    levels, (resolution,) = _read_rows(
        path, "grid", "H W resolution", _level_row, np.int64,
        lambda lv: 0 <= lv.min() and lv.max() <= 100, _check_resolution)
    return OccupancyGrid(levels, resolution)


def write_grid(grid: OccupancyGrid, path) -> None:
    height, width = grid.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{height} {width} {grid.resolution:.17g}\n")
        for row in grid.levels:
            fh.write(" ".join(str(int(v)) for v in row))
            fh.write("\n")


def _value_row(path, line_no, fields):
    row = []
    for c, tok in enumerate(fields):
        try:
            val = float(tok)
        except ValueError:
            _fail(path, line_no, f"field {c + 1}: not a number: {tok!r}")
        if not math.isfinite(val):
            _fail(path, line_no, f"field {c + 1}: non-finite value {tok!r}")
        row.append(val)
    return row


def read_mi_map(path) -> MIMap:
    values, _ = _read_rows(path, "map", "H W", _value_row, np.float64,
                           lambda v: np.isfinite(v).all())
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
