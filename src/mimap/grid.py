"""Occupancy-grid containers and shared scan-line geometry.

Map-level algorithms in this package do not cast an independent ray from
every cell.  Instead, each beam angle gets one family of parallel scan
lines that covers the grid exactly once; the beam leaving any cell is then
a suffix of the scan line through that cell, so a single sweep of each
line serves every cell on it.  The exploration scan reads its beams from
the same families, so this module holds the only implementation of the
line rounding rule below.

A line is parameterized along its major axis u (the axis with the larger
direction component; columns win ties) as

    minor(u) = phase + floor(slope * u + 0.5)

with a per-line integer ``phase``.  The midpoint rounding breaks ties
toward the positive minor axis.  Because the phase is a property of the
line rather than of any start cell, all cells on a line agree on its
discretization, which is what makes suffix sharing exact.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

# Cells per heading block of a ``sweep`` without a memo.  A block's
# buffers hold a few words per cell, so this bounds their memory; larger
# blocks mean fewer, longer steps of the sweep loop.
LANE_BLOCK_CELLS = 1 << 19


class CellCoord(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class SensorConfig:
    """Beam headings of the simulated range sensor.

    ``delta_theta`` is always derived from ``ray_count`` so the headings
    tile the full circle exactly.  ``max_range`` only matters for scan
    simulation; map-wide MI always extends beams to the grid edge.
    """

    ray_count: int = 60
    max_range: float = math.inf

    def __post_init__(self):
        if self.ray_count < 1:
            raise ValueError("ray_count must be >= 1")
        if not self.max_range > 0:
            raise ValueError("max_range must be positive")

    @property
    def delta_theta(self) -> float:
        return 2.0 * math.pi / self.ray_count

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.ray_count) / self.ray_count


@dataclass(frozen=True)
class FcmiParams:
    """Cap constant keeping the recursion finite for fully occupied cells."""

    lambda_cap: float = 1e7

    def __post_init__(self):
        if not self.lambda_cap > 1:
            raise ValueError("lambda_cap must be > 1")

    @property
    def log_lambda_cap(self) -> float:
        return math.log(self.lambda_cap)


@dataclass
class OccupancyGrid:
    """2D grid of occupancy levels; level/100 is the occupancy probability."""

    levels: np.ndarray
    resolution: float = 1.0

    def __post_init__(self):
        lv = np.asarray(self.levels)
        if lv.ndim != 2 or lv.size == 0:
            raise ValueError("levels must be a non-empty 2-D array")
        # NaN fails the equality, so only whole numbers reach the range check
        if lv.dtype.kind not in "biu" and not np.array_equal(lv, np.trunc(lv)):
            raise ValueError("occupancy levels must be whole numbers")
        if lv.min() < 0 or lv.max() > 100:
            raise ValueError("occupancy levels must lie in 0..100")
        if not 0 < self.resolution < math.inf:
            raise ValueError(
                f"resolution must be positive and finite, got {self.resolution}")
        self.levels = np.ascontiguousarray(lv, dtype=np.uint8)

    @property
    def shape(self) -> tuple[int, int]:
        return self.levels.shape

    @classmethod
    def uniform(cls, shape, level: int = 50, resolution: float = 1.0):
        return cls(np.full(shape, level, dtype=np.uint8), resolution)


@dataclass
class MIMap:
    """Per-cell mutual information accumulated over all beam headings.

    ``raw`` carries the Q20.12 accumulator words when the map came off the
    fixed-point path; it is None for the floating-point reference.
    ``saturations`` counts the fixed-point saturation events of the
    ``compute_mi_map_fxp`` call that made the map: those of encoding each
    heading's cell width, of preprocessing, once per heading, each
    occupancy level the grid holds, and of the sweep and the accumulate.
    A map with any was clipped somewhere; the count equals that of the
    bit-exact scalar chain in the test suite's oracles.
    """

    values: np.ndarray
    raw: np.ndarray | None = None
    saturations: int = 0

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be 2-D")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def normalized(self) -> np.ndarray:
        """Min-max rescale to [0, 1]; a constant map, or one holding NaN,
        rescales to all zeros."""
        lo = float(self.values.min())
        hi = float(self.values.max())
        if hi > lo:
            return (self.values - lo) / (hi - lo)
        return np.zeros_like(self.values)


def cell_width(angle: float, resolution: float) -> float:
    """Per-step beam advance at this heading: the major-axis chord length."""
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    return resolution / max(abs(math.cos(angle)), abs(math.sin(angle)))


def _axes(angle: float) -> tuple[bool, int, float]:
    """Split a heading into (major_is_col, step sign, minor-per-major slope)."""
    dc = math.cos(angle)  # along columns (x)
    dr = math.sin(angle)  # along rows (y)
    if abs(dc) >= abs(dr):
        return True, (1 if dc > 0 else -1), dr / dc
    return False, (1 if dr > 0 else -1), dc / dr


@dataclass(frozen=True, eq=False)
class LineFamily:
    """Flat-array form of all scan lines of one heading over one grid shape.

    ``cells`` holds flat indices (row*W + col) for every grid cell
    exactly once, in scan order within each line (far end of the beam
    first): int32 from ``line_family``, and the table's type in the
    families ``family_table`` returns.
    Lines are grouped into wrap units: phases congruent modulo the minor
    extent form the modular continuation of a single beam across the map
    boundary, and each unit covers every major coordinate exactly once, so
    the ``n_units`` units (one per minor coordinate) of one heading hold
    exactly the same number U = len(cells) // n_units of cells.  A unit
    starts a line, so every multiple of U is in ``seg_start``.

      cells[seg_start[i] : seg_start[i+1]]   -> line i (one wrap segment)
      cells[j*U : (j+1)*U]                    -> wrap unit j
      seg_phase[i]                            -> phase of line i
    """

    cells: np.ndarray
    seg_start: np.ndarray
    seg_phase: np.ndarray
    n_units: int

    @property
    def n_lines(self) -> int:
        return len(self.seg_start) - 1

    def line_lengths(self) -> np.ndarray:
        return np.diff(self.seg_start)


def line_family(angle: float, bounds: tuple[int, int]) -> LineFamily:
    """The family of one heading over a grid of shape ``bounds``, built
    anew on every call; the engines, the scan and the cycle model read
    theirs from ``family_table``."""
    height, width = int(bounds[0]), int(bounds[1])
    major_is_col, step, slope = _axes(float(angle))
    if major_is_col:
        u_max, v_max = width, height
    else:
        u_max, v_max = height, width
    # int32 throughout, the cells' type: no value here exceeds H*W
    u = np.arange(u_max, dtype=np.int32)
    m = np.floor(slope * u + 0.5).astype(np.int32)
    scan_u = u[::-1] if step > 0 else u  # anti-beam sweep direction
    m_scan = m[scan_u]
    rho = np.arange(v_max, dtype=np.int32)[:, None]
    v = (rho + m_scan[None, :]) % v_max          # unit rho at major scan_u
    if major_is_col:
        flat = v * width + scan_u[None, :]
    else:
        flat = scan_u[None, :] * width + v
    phase = v - m_scan[None, :]
    brk = np.empty(phase.shape, dtype=bool)
    brk[:, 0] = True
    brk[:, 1:] = phase[:, 1:] != phase[:, :-1]
    starts = np.flatnonzero(brk.ravel()).astype(np.int64)
    seg_start = np.append(starts, v_max * u_max)
    seg_phase = phase.ravel()[starts].astype(np.int64)
    return LineFamily(flat.reshape(-1), seg_start, seg_phase, v_max)


@lru_cache(maxsize=16)
def family_table(ray_count: int, height: int, width: int
                 ) -> tuple[np.ndarray, tuple[LineFamily, ...]]:
    """The one store of family cells: the ``line_family`` cells of the
    ``ray_count`` headings of ``SensorConfig(ray_count)`` on a
    ``height`` x ``width`` grid, as a read-only, C-contiguous (R, H*W)
    table, with the R families whose ``cells`` are its rows.  Entry j of
    heading k's family sits at flat position k*H*W + j.  The sweep's lane
    blocks, the scan and the cycle model read slices of it.

    The cells are uint16 up to 65 536 of them, every index then below
    2**16, which halves ``line_family``'s int32 cells; int32 beyond.  An
    expression mixing the entries with a Python int must name its type:
    NumPy keeps uint16 there, so a -1 reads as 65 535."""
    n_cells = height * width
    table = np.empty((ray_count, n_cells),
                     dtype=np.uint16 if n_cells <= 1 << 16 else np.int32)
    segs = []
    for k, angle in enumerate(SensorConfig(ray_count).angles):
        fam = line_family(angle, (height, width))
        table[k] = fam.cells  # the table keeps the only lasting copy
        segs.append((fam.seg_start, fam.seg_phase, fam.n_units))
    table.flags.writeable = False
    return table, tuple(LineFamily(row, *seg) for row, seg in zip(table, segs))


class LaneBlock(NamedTuple):
    """Consecutive headings laid out as one set of lanes for the engines.

    ``cells`` is rows ``first`` on of the ``family_table``, flattened: a
    read-only view of the block's headings' ``line_family`` cells, in
    heading order, H*W of them per heading, in the table's type.  Every
    line of those families is a lane: lane j reads ``cells[lane_start[j]
    + t]`` at sweep steps t < ``lane_len[j]``, and its heading is ``first
    + lane_start[j] // (H*W)``.  Lanes run longest first, so the lanes
    still active at step t are the first ``_active(lane_len)[t]``.
    """

    first: int
    cells: np.ndarray
    lane_start: np.ndarray
    lane_len: np.ndarray


def lane_blocks(ray_count: int, bounds: tuple[int, int]) -> Iterator[LaneBlock]:
    """The ``ray_count`` headings in consecutive blocks of at most
    ``LANE_BLOCK_CELLS`` cells (at least one heading each), in heading
    order.  Each block is built when it is asked for, so a caller that
    drops a block before taking the next holds one block's lanes at a
    time."""
    n_cells = int(bounds[0]) * int(bounds[1])
    per = max(1, LANE_BLOCK_CELLS // n_cells)
    for first in range(0, ray_count, per):
        yield _lane_block(ray_count, first, per, bounds)


def _lane_block(ray_count: int, first: int, per: int,
                bounds: tuple[int, int]) -> LaneBlock:
    """Headings ``first`` to ``first + per``, or to the last, as one block."""
    table, fams = family_table(ray_count, *bounds)
    n_cells = table.shape[1]
    fams = fams[first:first + per]
    lengths = np.concatenate([f.line_lengths() for f in fams])
    starts = np.concatenate([f.seg_start[:-1] + k * n_cells
                             for k, f in enumerate(fams)])
    order = np.argsort(-lengths, kind="stable")
    return LaneBlock(first, table[first:first + per].reshape(-1),
                     starts[order], lengths[order])


def _active(lane_len: np.ndarray) -> np.ndarray:
    """Lanes still active at each step, for lane lengths longest first."""
    steps = int(lane_len[0]) if lane_len.size else 0
    return np.searchsorted(-lane_len, -np.arange(steps), side="left")


def _lane_table(block: LaneBlock, n_cells: int) -> np.ndarray:
    """The block's lane of each (heading, cell): entry [k, c] is the lane
    of the block's k-th heading that holds cell c, in the smallest
    unsigned type that holds every lane index of the block."""
    # the lanes partition the block's positions; in position order, lane
    # j covers its lane_len[j] positions from lane_start[j]
    by_start = np.argsort(block.lane_start)
    lane_at = np.repeat(by_start.astype(np.min_scalar_type(len(by_start) - 1)),
                        block.lane_len[by_start])
    cells = block.cells.reshape(-1, n_cells)
    table = np.empty(cells.shape, dtype=lane_at.dtype)
    table[np.arange(len(cells))[:, None], cells] = lane_at.reshape(cells.shape)
    return table


def _touched_lanes(lane_of: np.ndarray, n_lanes: int,
                   changed: np.ndarray) -> np.ndarray:
    """Mask of a block's ``n_lanes`` lanes that hold a cell of the flat
    indices ``changed``, from the block's ``_lane_table``."""
    hit = np.zeros(n_lanes, dtype=bool)
    hit[lane_of[:, changed]] = True
    return hit


class SweepMemo:
    """Caller-owned state of one ``sweep`` call for the next call to reuse.

    After a call it holds the call's flat levels, the call's key, its one
    ``LaneBlock`` of every heading, that block's lane of each (heading,
    cell) (``_lane_table``) and its contribution buffer (slot k*H*W + c
    for heading k and cell c).  Per heading and cell that is one word of
    the lane table and one of the buffer; the block's cells are the
    shared ``family_table``, flattened.  While a call runs, and after a
    call that raised, it is empty.  An engine sets ``buf`` to None after
    a call whose kept contributions the next call must not reuse (the
    fixed-point engine does so after a call that saturated), which keeps
    the block and its lane table and makes the next call step every lane.
    """

    def __init__(self):
        self.key = None
        self.levels: np.ndarray | None = None
        self.buf: np.ndarray | None = None
        self.block: LaneBlock | None = None
        self.lane_of: np.ndarray | None = None


def sweep(levels: np.ndarray, ray_count: int, table: np.ndarray, step, fold,
          buf_dtype, memo: SweepMemo | None = None, key=None) -> np.ndarray:
    """The one sweep of both map engines: a recursion along every line of
    every heading's family, each cell's contributions summed.

    Headings go in lane blocks, every line of a block one lane of a step
    loop, much as the hardware interleaves independent rays through one
    pipeline.  At step t the ``na`` lanes still active gather the
    ``table`` column of their next cell (key ``heading*101 + level``), and
    ``step(state, cols)`` updates their ``(4, na)`` state in place and
    returns their contributions.  The contribution of the block's k-th
    heading to cell c waits in slot k*H*W + c of a ``buf_dtype`` buffer,
    addressed by cell as the hardware's MI banks are, until the block is
    done; then ``fold(acc, rows)`` adds the buffer's (headings, H*W)
    ``rows`` into the flat accumulator in place, with the words or values
    of adding them one heading at a time, so each cell sums in heading
    order.  The accumulator starts at zero and takes one row of every
    heading.  The state has the table's dtype; the accumulator is float64.
    A call without a memo takes its blocks from ``lane_blocks`` and holds
    one block at a time.

    A ``memo`` lets consecutive calls on slowly changing maps share work.
    A lane's contributions depend only on the levels of its own cells and
    on the table and step, which ``key`` must name in full (for the
    fixed-point engine: sensor, resolution and parameters).  A call with
    a memo lays out every heading as one block, so it runs as many steps
    as the longest line has cells.  A call with a memo filled by a call
    of the same shape and key steps only the lanes that hold a cell whose
    level changed, keeping their longest first order, writes their
    contributions over the memo's buffer and folds every heading again,
    so its result is that of a cold call.  It finds those lanes by
    looking the changed cells up in the block's ``_lane_table``.  It runs
    warm only when the memo holds a buffer under its key; otherwise it
    runs cold, stepping every lane.  The engine owns any rule beyond
    that: ``compute_mi_map_fxp`` drops the buffer after a call that
    saturated, so that the clips of kept lanes are counted again.  The
    block and its lane table depend only on shape and key, so a call
    under the memo's key reuses them, cold or not.  The memo is emptied
    when the call starts and filled again only when its sweep has
    finished.  Per (heading, cell) it holds a lane index of at most four
    bytes and a ``buf_dtype`` word.  For the fixed-point engine at 60
    rays that is, at 57² (4 892 lanes, two-byte indices), 0.39 + 0.78 MB,
    and at 201² (17 324 lanes, two-byte indices) 4.85 + 9.70 MB; the
    block's cells are the ``family_table``, which every call and the scan
    share.  So it is owned by the caller and not hung on the returned
    map: a caller keeping many maps would keep a buffer with each.
    """
    n_cells = levels.size
    levels_flat = levels.reshape(-1)
    acc = np.zeros(n_cells)
    key = (levels.shape, key)
    kept = None
    if memo is None:
        blocks = lane_blocks(ray_count, levels.shape)
    else:
        block = None
        if memo.key == key:
            block, lane_of, kept = memo.block, memo.lane_of, memo.buf
            if kept is not None:
                changed = np.flatnonzero(memo.levels != levels_flat)
        memo.key = memo.levels = memo.buf = memo.block = memo.lane_of = None
        if block is None:
            block = _lane_block(ray_count, 0, ray_count, levels.shape)
            lane_of = _lane_table(block, n_cells)
        blocks = (block,)
    for block in blocks:
        start, lane_len = block.lane_start, block.lane_len
        if kept is None:
            buf = np.empty(len(block.cells), dtype=buf_dtype)
        else:
            buf = kept
            hit = _touched_lanes(lane_of, len(start), changed)
            start, lane_len = start[hit], lane_len[hit]
        base = start - start % n_cells
        lane_key = 101 * (block.first + start // n_cells)
        state = np.zeros((4, len(start)), dtype=table.dtype)
        for t, na in enumerate(_active(lane_len).tolist()):
            cells = block.cells[start[:na] + t]
            cols = table.take(lane_key[:na] + levels_flat[cells], axis=1)
            buf[base[:na] + cells] = step(state[:, :na], cols)
        fold(acc, buf.reshape(-1, n_cells))
        if memo is not None:
            # a memo's one block: the sweep has finished
            memo.key, memo.levels, memo.buf = key, levels_flat.copy(), buf
            memo.block, memo.lane_of = block, lane_of
        # drop the block's lanes and buffer before the next block is built
        del block, buf
    return acc
