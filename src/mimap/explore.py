"""Exploration trials: entropy versus trajectory under MI compute rates.

A simulated robot scans a hidden ground-truth scene, folds each scan into
its occupancy grid by log-odds updates, and steers toward the frontier
cell with the best distance-discounted MI.  MI maps are produced by the
fixed-point map engine at the rate the compute platform allows: a compute
snapshots the grid when it starts and its result becomes available one
platform latency later, so slow platforms plan on stale maps.  Everything
downstream of the seed is deterministic.
"""

import csv
import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .datapath import compute_mi_map_fxp
from .grid import (CellCoord, FcmiParams, MIMap, OccupancyGrid,
                   SensorConfig, SweepMemo, cell_width, family_table)
from .reference import map_entropy

UNKNOWN_LO = 40        # level band treated as unexplored
UNKNOWN_HI = 60
L_FREE = -0.85         # log-odds added per free observation
L_OCC = 1.8            # log-odds added per hit
LEVEL_FLOOR = 1        # clamp band keeps every cell revisable
LEVEL_CEIL = 99
UTILITY_DECAY = 0.05   # per-cell distance discount in the frontier utility


@dataclass(frozen=True)
class Environment:
    """Hidden ground truth: boolean occupancy at the robot map's dims.

    The environment keeps its own read-only copy of the array it is given,
    so the scan tables ``simulate_scan`` caches on it, one ``(position,
    stop)`` pair per sensor (``_scan_tables``), cannot go stale when the
    caller edits that array.
    """

    occupied: np.ndarray
    resolution: float = 1.0
    _scan_tables: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        occ = np.array(self.occupied, dtype=bool, order="C")
        if occ.ndim != 2 or occ.size == 0:
            raise ValueError("ground truth must be a non-empty 2-D array")
        if not 0 < self.resolution < math.inf:
            raise ValueError(
                f"resolution must be positive and finite, got {self.resolution}")
        occ.flags.writeable = False
        object.__setattr__(self, "occupied", occ)

    @property
    def shape(self) -> tuple[int, int]:
        return self.occupied.shape

    @classmethod
    def from_grid(cls, grid: OccupancyGrid) -> "Environment":
        lv = grid.levels
        if not np.isin(lv, (0, 100)).all():
            raise ValueError("scene grids must use levels 0 and 100 only")
        return cls(lv == 100, grid.resolution)

    def to_grid(self) -> OccupancyGrid:
        return OccupancyGrid(np.where(self.occupied, 100, 0).astype(np.uint8),
                             self.resolution)


@dataclass(frozen=True)
class PlatformProfile:
    """Latency and energy of one full-map MI compute on a platform."""

    mi_latency_s: float
    mi_energy_j: float

    def __post_init__(self):
        for name in ("mi_latency_s", "mi_energy_j"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


# The fpga figures are the paper's measured 1.55 ms and 1.7 mJ per full-map
# MI compute.  The cycle model gives 153 086 cycles = 1.531 ms for a 201x201
# map at 60 rays with the default config, and its energy constants are
# calibrated to 1.7 mJ on that run; the measured latency is kept so trial
# logs do not move with the model.  The 100 ms profile stands in for a
# desktop-GPU baseline at the measured speed and energy ratios relative to it.
PLATFORMS = {
    "fpga": PlatformProfile(1.55e-3, 1.7e-3),
    "gpu": PlatformProfile(0.100, 4.5),
}


class TrialRow(NamedTuple):
    step: int
    sim_time_s: float
    trajectory_cells: int
    entropy_nats: float
    mi_computes: int
    mi_energy_j: float


@dataclass
class TrialLog:
    rows: list[TrialRow] = field(default_factory=list)
    complete: bool = False

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(TrialRow._fields)
        for row in self.rows:
            w.writerow([row.step, f"{row.sim_time_s:.9f}",
                        row.trajectory_cells, f"{row.entropy_nats:.9f}",
                        row.mi_computes, f"{row.mi_energy_j:.9e}"])
        return buf.getvalue()

    def entropy_at(self, trajectory_cells: int) -> float:
        """Entropy after the last step at or under the given path length."""
        best = self.rows[0].entropy_nats
        for row in self.rows:
            if row.trajectory_cells > trajectory_cells:
                break
            best = row.entropy_nats
        return best


class Scan(NamedTuple):
    """One scan's beams; cells are flat indices ``row*W + col``.

    Beam i traversed ``cells[start[i]:start[i+1]]``, pose first, and
    ``hits[i]`` is its first occupied cell, or -1 when it reached max
    range or the map's edge without one.
    """

    cells: np.ndarray   # int32 ground-truth-free cells, beam after beam
    start: np.ndarray   # R + 1 offsets into ``cells``, from 0
    hits: np.ndarray    # int32 per beam: first occupied cell, -1 = none


def _scan_tables(env: Environment, sensor: SensorConfig
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The sensor's two scan tables, (R, H*W) each in the type of the
    shared ``family_table`` (uint16 up to 65 536 cells, int32 past that),
    row k read against heading k's family, entry j its ``cells[k, j]``:

    - ``position``: ``position[k, c]`` is the entry of flat cell c in
      heading k's family (row k is the inverse of the permutation
      ``cells[k]``);
    - ``stop``: ``stop[k, j]`` is the entry where the beam starting at
      entry j stops: its first occupied cell if that lies within reach,
      or else the farthest cell it reaches.

    A beam runs from its entry back to its line's start, cut at its reach
    of ``max_range / cell_width`` cells, so its first occupied cell is the
    nearest occupied entry at or before its own on its line.  Entries lie
    in 0..H*W-1, so both tables fit the family table's type and hold no
    sign.  The tables are built once per sensor and cached on the
    environment, whose ground truth cannot change."""
    tables = env._scan_tables.get(sensor)
    if tables is not None:
        return tables
    occupied = env.occupied.ravel()
    cells, fams = family_table(sensor.ray_count, *env.shape)
    n_cells = cells.shape[1]
    position = np.empty(cells.shape, dtype=cells.dtype)
    stop = np.empty(cells.shape, dtype=cells.dtype)
    entry = np.arange(n_cells)
    for k, (ang, fam) in enumerate(zip(sensor.angles, fams)):
        position[k, fam.cells] = entry
        reach = sensor.max_range / cell_width(float(ang), env.resolution)
        # the reach caps at n_cells, longer than any line, before int():
        # an infinite range, or one whose quotient overflowed, cuts nothing
        line_start = np.repeat(fam.seg_start[:-1], fam.line_lengths())
        farthest = np.maximum(line_start, entry - int(min(reach, n_cells)))
        hit = np.where(occupied[fam.cells], entry, -1)
        np.maximum.accumulate(hit, out=hit)
        stop[k] = np.maximum(hit, farthest)
    tables = env._scan_tables[sensor] = (position, stop)
    return tables


def simulate_scan(env: Environment, pose: CellCoord,
                  sensor: SensorConfig = SensorConfig()) -> Scan:
    """Cast every sensor ray from the pose through the hidden scene.

    Each beam is read from the ``line_family`` of its heading: the family
    line through the pose, from the pose back to its first scan cell
    (family lines run anti-parallel to the beam).  A beam holds at most
    ``int(max_range / cell_width) + 1`` cells and ends at its first
    occupied cell.  The cut is made only where that quotient is below the
    beam's length, so an infinite range, or a finite one whose quotient
    overflows to infinity, keeps the whole beam.  The scene is fixed, so
    where each beam stops is looked up, not searched, in the
    environment's tables for this sensor (``_scan_tables``, built on the
    first scan), read as one run of R*H*W positions, position k*H*W + j
    being entry j of heading k: one gather gives the pose's entry in
    every heading's family and one more the entries where its beams stop,
    each offset by k*H*W to its position in the ``family_table``.  The
    pose is free, and a beam's farthest cell would be its hit if it were
    occupied, so a beam hit exactly when its stop cell is occupied; it
    traversed the cells from the pose down to its stop, the stop
    excluded when it is the hit.  The beams' lengths then lay out
    ``Scan.start``, and one index vector, each beam's positions from the
    pose down, gathers every traversed cell.  The cells and hits are cast
    to int32 at their gathers: the table may be uint16, where a -1 "no
    hit" would read as 65 535.
    """
    r, c = pose
    height, width = env.shape
    if not (0 <= r < height and 0 <= c < width):
        raise ValueError(f"pose {pose} outside {height}x{width} scene")
    if env.occupied[r, c]:
        raise ValueError(f"pose {pose} is on an occupied ground-truth cell")
    position, stop = _scan_tables(env, sensor)
    cells = family_table(sensor.ray_count, height, width)[0].reshape(-1)
    offset = np.arange(0, cells.size, height * width)
    p = position[:, r * width + c] + offset
    s = stop.reshape(-1)[p] + offset
    stop_cells = cells[s]
    hit = env.occupied.reshape(-1)[stop_cells]
    # a beam traverses its positions p down to s, less s when it is a hit
    n = p - s + ~hit
    start = np.zeros(len(p) + 1, dtype=np.intp)
    np.cumsum(n, out=start[1:])
    # entry j of beam i is position p[i] - j, pose first
    beams = np.repeat(p + start[:-1], n) - np.arange(start[-1])
    return Scan(cells[beams].astype(np.int32, copy=False), start,
                np.where(hit, stop_cells, np.int32(-1)))


def _requantize(level: int, delta: float) -> int:
    # levels 0 and 100 sit at infinite log-odds, which no finite delta
    # moves; the formula's limit there is the clamp band's edge
    if level == 0:
        return LEVEL_FLOOR
    if level == 100:
        return LEVEL_CEIL
    p = level / 100.0
    odds = math.log(p / (1.0 - p)) + delta
    q = round(100.0 / (1.0 + math.exp(-odds)))
    return min(LEVEL_CEIL, max(LEVEL_FLOOR, q))


# level after one free or one hit observation, indexed by the level before
_FREE_TABLE = np.array([_requantize(v, L_FREE) for v in range(101)], np.uint8)
_HIT_TABLE = np.array([_requantize(v, L_OCC) for v in range(101)], np.uint8)


def update_occupancy(grid: OccupancyGrid, scan: Scan) -> OccupancyGrid:
    """Fold one scan into the map; each observed cell updates once.

    Every traversed cell takes its new level from ``_FREE_TABLE``, and
    every hit cell afterwards from ``_HIT_TABLE``: 101-entry tables of
    ``_requantize(level, L_FREE)`` and ``_requantize(level, L_OCC)``,
    built once at import.  Each is one gather and one scatter by flat
    index.  A cell on several beams reads the same level before the
    scatter and so writes the same new one, and moves once per kind.
    The hit entries of -1 (no hit) are dropped first: as an index they
    would name the map's last cell.
    """
    levels = grid.levels.copy()
    flat = levels.reshape(-1)
    flat[scan.cells] = _FREE_TABLE[flat[scan.cells]]
    hits = scan.hits[scan.hits >= 0]
    flat[hits] = _HIT_TABLE[flat[hits]]
    return OccupancyGrid(levels, grid.resolution)


def _free_mask(levels: np.ndarray) -> np.ndarray:
    return levels < UNKNOWN_LO


def _bfs_distances(levels: np.ndarray, start: CellCoord,
                   stop: CellCoord | None = None) -> np.ndarray:
    """4-connected hop counts through believed-free cells; -1 unreachable.

    The start cell is traversable regardless of its level: the robot is
    standing on it.  The search is a wavefront over a frontier list: the
    map is padded by one impassable cell on every side, so the four
    neighbours of a flat index are the index plus or minus 1 and plus or
    minus the padded width, with no edge test.  Hop ``d`` takes the
    neighbours of the hop ``d - 1`` frontier that are passable and not
    reached yet, keeps one entry of each cell (cells reached from two
    sides appear twice, and without the dedup the list would grow with the
    number of shortest paths), and writes ``d`` into them.  With ``stop``
    given, the search ends after the hop that reaches that cell: every
    cell at most that many hops away is final by then, and farther cells
    read -1.
    """
    height, width = levels.shape
    padded = width + 2
    unreached = np.zeros((height + 2, padded), dtype=bool)
    unreached[1:-1, 1:-1] = _free_mask(levels)
    unreached = unreached.reshape(-1)
    dist = np.full(unreached.size, -1, dtype=np.int32)
    front = np.array([(start[0] + 1) * padded + start[1] + 1])
    unreached[front] = False
    dist[front] = 0
    goal = -1 if stop is None else (stop[0] + 1) * padded + stop[1] + 1
    steps = np.array([-1, 1, -padded, padded])
    hop = 0
    while front.size and (goal < 0 or dist[goal] < 0):
        hop += 1
        near = (front[:, None] + steps).reshape(-1)
        near = near[unreached[near]]
        # dedup: each cell's dist holds the index of its last entry in
        # ``near`` for a moment; every such cell then takes ``hop``
        order = np.arange(near.size, dtype=np.int32)
        dist[near] = order
        front = near[dist[near] == order]
        unreached[front] = False
        dist[front] = hop
    return dist.reshape(height + 2, padded)[1:-1, 1:-1]


def frontier_cells(levels: np.ndarray) -> np.ndarray:
    """Boolean mask of free cells 4-adjacent to at least one unknown cell."""
    unknown = (levels >= UNKNOWN_LO) & (levels <= UNKNOWN_HI)
    near = np.zeros_like(unknown)
    near[1:, :] |= unknown[:-1, :]
    near[:-1, :] |= unknown[1:, :]
    near[:, 1:] |= unknown[:, :-1]
    near[:, :-1] |= unknown[:, 1:]
    return _free_mask(levels) & near


def gbl_select(mi_map: MIMap, grid: OccupancyGrid,
               position: CellCoord) -> CellCoord | None:
    """Reachable frontier cell from ``position`` maximizing MI discounted
    by path length.

    Ties fall to the nearer candidate, then to row-major order.  Returns
    None when no reachable frontier remains (exploration complete).
    """
    if mi_map.shape != grid.shape:
        raise ValueError(f"MI map shape {mi_map.shape} does not match "
                         f"grid shape {grid.shape}")
    levels = grid.levels
    dist = _bfs_distances(levels, position)
    cand = frontier_cells(levels) & (dist >= 0)
    if not cand.any():
        return None
    rows, cols = np.nonzero(cand)
    d = dist[rows, cols]
    # math.exp per distance: numpy's vector exp may round differently
    decay = np.array([math.exp(-UTILITY_DECAY * k) for k in range(int(d.max()) + 1)])
    utility = mi_map.values[rows, cols] * decay[d]
    # lexsort is stable and sorts by its last key first
    best = np.lexsort((d, -utility))[0]
    return CellCoord(int(rows[best]), int(cols[best]))


@dataclass
class _GoalSearch:
    """The last goal-rooted ``_bfs_distances`` of a trial and the free
    mask of the map it ran on."""

    goal: CellCoord | None = None
    free: np.ndarray | None = None
    dist: np.ndarray | None = None


def _step_toward(levels: np.ndarray, pos: CellCoord, goal: CellCoord,
                 last: _GoalSearch) -> CellCoord | None:
    """First move of a shortest free-space path, None if unreachable.

    The search runs from the goal and stops once it reaches ``pos``: the
    neighbours one hop nearer the goal are final by then.  The search in
    ``last`` is reused if it has this goal, ran on this free mask and
    reached ``pos``.  Every cell at most as far from the goal as that
    search's stop cell is final in it, ``pos`` and its nearer neighbours
    among them, so the move is the one a fresh search gives.  A fresh
    search is stored in ``last``; an empty ``_GoalSearch()`` always
    searches afresh.
    """
    free = _free_mask(levels)
    r, c = pos
    if (last.goal == goal and last.dist[r, c] >= 0
            and np.array_equal(last.free, free)):
        dist = last.dist
    else:
        dist = _bfs_distances(levels, goal, stop=pos)
        last.goal, last.free, last.dist = goal, free, dist
    if dist[r, c] < 0:
        return None
    height, width = levels.shape
    here = dist[r, c]
    for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
        if (0 <= nr < height and 0 <= nc < width
                and 0 <= dist[nr, nc] < here):
            return CellCoord(nr, nc)
    return None


class _MICompute(NamedTuple):
    basis: np.ndarray      # grid levels snapshot the compute started from
    basis_step: int        # scan counter at snapshot time
    finish_s: float


def run_trial(env: Environment, sensor: SensorConfig = SensorConfig(),
              params: FcmiParams = FcmiParams(),
              platform: PlatformProfile = PLATFORMS["fpga"],
              scan_rate_hz: float = 30.0, seed: int = 0,
              max_steps: int = 3000) -> TrialLog:
    """One exploration trial; identical inputs give an identical log.

    Per scan period the robot scans, folds the scan into its map, moves one
    cell along the shortest believed-free path to its goal, and replans
    from the newest completed MI map whenever the goal is reached or
    blocked.  A finished MI compute restarts immediately while scans it has
    not seen exist (a slow platform computes back to back); otherwise the
    engine idles until the next scan.  MI values are realized lazily from
    the recorded snapshots, which cannot change the trajectory because only
    maps the planner actually reads ever influence it.  Consecutive maps
    read differ in few cells, so the trial's MI computes share one
    ``SweepMemo``, and a scan seldom changes which cells are believed
    free, so the moves toward one goal share a goal-rooted search while
    it holds.
    """
    if not 0 < scan_rate_hz < math.inf:
        raise ValueError(f"scan_rate_hz must be positive and finite, got {scan_rate_hz}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    rng = np.random.default_rng(seed)
    free_rows, free_cols = np.nonzero(~env.occupied)
    if free_rows.size == 0:
        raise ValueError("scene has no free cell to start from")
    pick = int(rng.integers(free_rows.size))
    position = CellCoord(int(free_rows[pick]), int(free_cols[pick]))
    moves = 0
    grid = OccupancyGrid.uniform(env.shape, 50, env.resolution)
    period = 1.0 / scan_rate_hz

    log = TrialLog()
    in_flight: _MICompute | None = None
    latest: _MICompute | None = None
    latest_map: MIMap | None = None
    memo = SweepMemo()
    last_search = _GoalSearch()
    computes = 0
    goal: CellCoord | None = None
    step = 0
    while step < max_steps:
        now = step * period
        # completions first: a compute finishing exactly on a scan tick has
        # not seen that tick's scan
        while in_flight is not None and in_flight.finish_s <= now:
            latest, latest_map = in_flight, None
            computes += 1
            if latest.basis_step < step:
                in_flight = _MICompute(grid.levels.copy(), step,
                                       in_flight.finish_s + platform.mi_latency_s)
            else:
                in_flight = None

        scan = simulate_scan(env, position, sensor)
        grid = update_occupancy(grid, scan)
        step += 1
        if in_flight is None:
            in_flight = _MICompute(grid.levels.copy(), step,
                                   now + platform.mi_latency_s)

        done = False
        if goal is None and latest is not None:
            if latest_map is None:
                latest_map = compute_mi_map_fxp(
                    OccupancyGrid(latest.basis, env.resolution), sensor, params,
                    memo=memo)
            goal = gbl_select(latest_map, grid, position)
            done = goal is None
        if goal is not None:
            nxt = _step_toward(grid.levels, position, goal, last_search)
            if nxt is None:
                goal = None          # blocked: replan next cycle
            else:
                position = nxt
                moves += 1
                if position == goal:
                    goal = None
        log.rows.append(TrialRow(step, now, moves, map_entropy(grid), computes,
                                 computes * platform.mi_energy_j))
        if done:
            log.complete = True
            break
    return log
