"""Exploration harness: scan casting, map updates, planning, trials."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from mimap import explore
from mimap.explore import (
    _FREE_TABLE,
    _HIT_TABLE,
    L_FREE,
    L_OCC,
    LEVEL_CEIL,
    LEVEL_FLOOR,
    PLATFORMS,
    UNKNOWN_LO,
    UTILITY_DECAY,
    Environment,
    PlatformProfile,
    Scan,
    TrialLog,
    TrialRow,
    _bfs_distances,
    _GoalSearch,
    _requantize,
    _step_toward,
    frontier_cells,
    gbl_select,
    run_trial,
    simulate_scan,
    update_occupancy,
)
from mimap.grid import CellCoord, MIMap, OccupancyGrid, SensorConfig, cell_width
from mimap.gridio import read_grid
from mimap.reference import compute_mi_map

GOLDEN_TRIALS = Path(__file__).parent / "goldens" / "trial_digests.txt"


def scan_of(*beams):
    """A hand-made scan from (traversed flat cells, hit cell or None)
    beams."""
    return Scan(np.array([c for cells, _ in beams for c in cells], dtype=np.int32),
                np.cumsum([0] + [len(cells) for cells, _ in beams]),
                np.array([-1 if hit is None else hit for _, hit in beams], dtype=np.int32))


def beams(scan, width):
    """Every beam of a scan as ``oracles.ray_coords`` gives it."""
    return [oracles.ray_coords(scan, i, width) for i in range(len(scan.hits))]


def box_env(size=9, extra=()):
    """Bordered square scene with optional extra occupied cells."""
    occ = np.zeros((size, size), bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    for r, c in extra:
        occ[r, c] = True
    return Environment(occ)


# ---------------------------------------------------------------- environment


def test_environment_validation():
    with pytest.raises(ValueError):
        Environment(np.zeros((0, 3), bool))
    for resolution in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="resolution must be positive and finite"):
            Environment(np.zeros((3, 3), bool), resolution=resolution)


def test_environment_owns_a_read_only_copy():
    # a scan made before and one made after the caller edits its array
    # both see the scene as it was built
    source = np.zeros((5, 6), bool)
    scanned, fresh = Environment(source), Environment(source)
    pose, sensor = CellCoord(2, 2), SensorConfig(8)
    before = simulate_scan(scanned, pose, sensor)
    source[2, 4] = source[0, :] = True
    for env in (scanned, fresh):
        assert not env.occupied.any()
        after = simulate_scan(env, pose, sensor)
        assert (after.hits == -1).all()
        assert beams(after, 6) == beams(before, 6)
    with pytest.raises(ValueError, match="read-only"):
        scanned.occupied[0, 0] = True


def test_environment_grid_round_trip():
    env = box_env(5)
    grid = env.to_grid()
    assert set(np.unique(grid.levels)) == {0, 100}
    back = Environment.from_grid(grid)
    np.testing.assert_array_equal(back.occupied, env.occupied)
    with pytest.raises(ValueError, match="levels 0 and 100"):
        Environment.from_grid(OccupancyGrid.uniform((3, 3), 50))


# ---------------------------------------------------------------- scan casting


def test_scan_empty_environment_all_max_range():
    env = Environment(np.zeros((7, 7), bool))
    scan = simulate_scan(env, CellCoord(3, 3), SensorConfig(4))
    assert scan.hits.tolist() == [-1, -1, -1, -1]
    for traversed, _ in beams(scan, 7):
        assert traversed[0] == CellCoord(3, 3)
        assert len(traversed) == 4  # pose to grid edge


def test_scan_max_range_truncates():
    env = Environment(np.zeros((9, 9), bool))
    scan = simulate_scan(env, CellCoord(4, 4), SensorConfig(4, max_range=2.0))
    assert scan.hits.tolist() == [-1, -1, -1, -1]
    assert np.diff(scan.start).tolist() == [3, 3, 3, 3]  # int(range/width) + 1 cells


def test_scan_range_too_large_to_divide_keeps_whole_beam():
    # 1e308 / 0.1 overflows to inf, like an unlimited range
    env = Environment(np.zeros((3, 3), bool), resolution=0.1)
    scan = simulate_scan(env, CellCoord(1, 1), SensorConfig(4, max_range=1e308))
    want = simulate_scan(env, CellCoord(1, 1), SensorConfig(4))
    assert beams(scan, 3) == beams(want, 3)


def test_scan_adjacent_wall_hits_at_distance_one():
    env = box_env(5, extra=[(2, 3)])
    scan = simulate_scan(env, CellCoord(2, 2), SensorConfig(4))
    traversed, hit = oracles.ray_coords(scan, 0, 5)  # east
    assert traversed == [CellCoord(2, 2)]
    assert hit == CellCoord(2, 3)


@pytest.mark.parametrize("shape, pose, rays", [((9, 9), (4, 3), 12),
                                               ((256, 257), (100, 140), 8)],
                         ids=["9x9", "256x257"])
def test_scan_range_cut_on_the_wall(shape, pose, rays):
    # beam k of an unlimited scan from the pose meets the border wall as
    # its cell n; a reach of n cells ends on the wall and hits it, one of
    # n - 1 cells ends a free cell short and reports no hit.  256x257
    # holds its tables as int32, 9x9 as uint16
    occupied = np.zeros(shape, bool)
    occupied[0, :] = occupied[-1, :] = occupied[:, 0] = occupied[:, -1] = True
    for k, angle in enumerate(SensorConfig(rays).angles):
        traversed, wall = oracles.oracle_scan_ray(occupied, pose, float(angle),
                                                  1.0, math.inf)
        n = len(traversed)
        for reach, want in ((n + 0.5, (traversed, wall)),
                            (n - 0.5, (traversed, None))):
            sensor = SensorConfig(rays, reach * cell_width(float(angle), 1.0))
            env = Environment(occupied)
            scan = simulate_scan(env, CellCoord(*pose), sensor)
            assert env._scan_tables[sensor][1].dtype == (
                np.uint16 if occupied.size <= 65536 else np.int32)
            assert oracles.ray_coords(scan, k, shape[1]) == want
            for i, other in enumerate(sensor.angles):
                assert oracles.ray_coords(scan, i, shape[1]) == oracles.oracle_scan_ray(
                    occupied, pose, float(other), 1.0, sensor.max_range)


def test_scan_corridor_hand_traced():
    # 9x9 box plus a wall stub at rows 3..5 of column 6; pose at center
    env = box_env(9, extra=[(3, 6), (4, 6), (5, 6)])
    scan = simulate_scan(env, CellCoord(4, 4), SensorConfig(8))
    want = [
        ([(4, 4), (4, 5)], (4, 6)),
        ([(4, 4), (5, 5), (6, 6), (7, 7)], (8, 8)),
        ([(4, 4), (5, 4), (6, 4), (7, 4)], (8, 4)),
        ([(4, 4), (5, 3), (6, 2), (7, 1)], (8, 0)),
        ([(4, 4), (4, 3), (4, 2), (4, 1)], (4, 0)),
        ([(4, 4), (3, 3), (2, 2), (1, 1)], (0, 0)),
        ([(4, 4), (3, 4), (2, 4), (1, 4)], (0, 4)),
        ([(4, 4), (3, 5), (2, 6), (1, 7)], (0, 8)),
    ]
    for (got_cells, got_hit), (cells, hit) in zip(beams(scan, 9), want, strict=True):
        assert got_cells == [CellCoord(r, c) for r, c in cells]
        assert got_hit == CellCoord(*hit)


def test_scan_pose_errors():
    env = box_env(5)
    with pytest.raises(ValueError, match="occupied"):
        simulate_scan(env, CellCoord(0, 0))
    with pytest.raises(ValueError, match="outside"):
        simulate_scan(env, CellCoord(9, 9))


# ---------------------------------------------------------------- map updates


def test_update_free_hit_from_prior():
    grid = OccupancyGrid.uniform((1, 3), 50)
    scan = scan_of(([0], 1))   # traversed (0, 0), hit (0, 1)
    out = update_occupancy(grid, scan)
    assert out.levels[0, 0] == 30   # sigma(-0.85) = 0.2994
    assert out.levels[0, 1] == 86   # sigma(+1.80) = 0.8581
    assert out.levels[0, 2] == 50   # unobserved
    assert grid.levels[0, 0] == 50  # input untouched


def test_update_repeated_free_converges_to_floor():
    grid = OccupancyGrid.uniform((1, 1), 50)
    scan = scan_of(([0], None))
    seen = []
    for _ in range(10):
        grid = update_occupancy(grid, scan)
        seen.append(int(grid.levels[0, 0]))
    assert seen == sorted(seen, reverse=True)
    assert seen[-1] == 1 and seen[-2] == 1  # clamp floor reached and held


def test_update_repeated_hits_converge_to_ceiling():
    grid = OccupancyGrid.uniform((1, 1), 50)
    scan = scan_of(([], 0))
    for _ in range(10):
        grid = update_occupancy(grid, scan)
    assert grid.levels[0, 0] == 99


@pytest.mark.parametrize("level,want", [(0, 1), (100, 99)])
def test_update_certain_levels_enter_the_clamp_band(level, want):
    # levels 0 and 100 sit at infinite log-odds; either observation maps
    # them to the formula's limit, the nearest edge of the clamp band
    grid = OccupancyGrid(np.full((1, 2), level, np.uint8))
    out = update_occupancy(grid, scan_of(([0], 1)))
    np.testing.assert_array_equal(out.levels, [[want, want]])


def test_update_each_cell_once_per_scan():
    # two rays crossing the same cell must not double-count it
    grid = OccupancyGrid.uniform((1, 2), 50)
    scan = scan_of(([0], None), ([0, 1], None))
    out = update_occupancy(grid, scan)
    assert out.levels[0, 0] == 30
    assert out.levels[0, 1] == 30


def test_update_cell_both_traversed_and_hit_moves_free_then_hit():
    # a simulated scan never reports a cell both ways, but the update takes
    # any rays: the free step goes first, so 0 -> 1 -> 6 and 100 -> 99 -> 99
    # (hit first would give 0 -> 1 -> 1 and 100 -> 99 -> 98)
    grid = OccupancyGrid(np.array([[0, 100]], np.uint8))
    scan = scan_of(([0, 1], None), ([], 0), ([], 1))
    out = update_occupancy(grid, scan)
    assert out.levels.tolist() == [[6, 99]]
    np.testing.assert_array_equal(out.levels, oracles.oracle_update_levels(
        grid.levels, [beams(scan, 2)], L_FREE, L_OCC, LEVEL_FLOOR, LEVEL_CEIL))


def test_update_tables_match_requantize():
    assert _FREE_TABLE.dtype == _HIT_TABLE.dtype == np.uint8
    assert _FREE_TABLE.tolist() == [_requantize(v, L_FREE) for v in range(101)]
    assert _HIT_TABLE.tolist() == [_requantize(v, L_OCC) for v in range(101)]


def cells_of(height, width):
    return st.tuples(st.integers(0, height - 1), st.integers(0, width - 1))


@st.composite
def scanned_maps(draw, rays=st.integers(1, 13)):
    """Prior levels 0..100 on a 1..12 x 1..12 map, and the scans of a
    random scene of that shape from one to three free poses, with a ray
    count drawn from ``rays``."""
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    # two bytes a cell: a quarter of the scene occupied, any prior level
    n = height * width
    raw = np.frombuffer(draw(st.binary(min_size=2 * n, max_size=2 * n)),
                        np.uint8).reshape(2, height, width)
    occupied = raw[0] < 64
    prior = raw[1] % 101
    poses = draw(st.lists(cells_of(height, width), min_size=1, max_size=3))
    for pose in poses:
        occupied[pose] = False
    resolution = draw(st.sampled_from([0.1, 1.0]))
    sensor = SensorConfig(draw(rays),
                          draw(st.one_of(st.just(math.inf), st.floats(0.05, 20.0))))
    env = Environment(occupied, resolution)
    scans = [simulate_scan(env, CellCoord(*pose), sensor) for pose in poses]
    return OccupancyGrid(prior, resolution), scans


@given(scanned_maps())
def test_update_matches_set_fold_oracle(case):
    prior, scans = case
    grid = prior
    for scan in scans:
        grid = update_occupancy(grid, scan)
    width = prior.shape[1]
    coords = [beams(scan, width) for scan in scans]
    want = oracles.oracle_update_levels(prior.levels, coords, L_FREE, L_OCC,
                                        LEVEL_FLOOR, LEVEL_CEIL)
    np.testing.assert_array_equal(grid.levels, want)


@given(scanned_maps(rays=st.integers(16, 60)))
def test_update_of_overlapping_beams_matches_set_fold_oracle(case):
    # 16 to 60 beams on at most 12x12 cells cross the same cells again and
    # again, the pose on every beam; each scan still moves a cell once
    prior, scans = case
    grid = prior
    for scan in scans:
        assert np.unique(scan.cells).size < scan.cells.size
        grid = update_occupancy(grid, scan)
    want = oracles.oracle_update_levels(
        prior.levels, [beams(scan, prior.shape[1]) for scan in scans],
        L_FREE, L_OCC, LEVEL_FLOOR, LEVEL_CEIL)
    np.testing.assert_array_equal(grid.levels, want)


def test_update_max_range_beam_leaves_the_last_cell_alone():
    # the east beam from (0, 0) stops at max range on (0, 1), far from the
    # last cell; its hit entry of -1, read as an index, would name that cell
    env = Environment(np.zeros((2, 3), bool))
    scan = simulate_scan(env, CellCoord(0, 0), SensorConfig(1, max_range=1.0))
    assert scan.hits.tolist() == [-1]
    out = update_occupancy(OccupancyGrid.uniform((2, 3), 50), scan)
    assert out.levels.tolist() == [[30, 30, 50], [50, 50, 50]]


def test_scan_without_a_hit_leaves_cell_65535_alone():
    # 256x256 is the largest shape of uint16 family cells, and its last
    # cell is 65 535, the bit pattern of -1 in that type: the no-hit beams
    # must keep -1, and the update must not take it for that cell
    occupied = np.zeros((256, 256), bool)
    occupied[10, 20] = True
    env = Environment(occupied)
    scan = simulate_scan(env, CellCoord(10, 10), SensorConfig(4))
    assert scan.cells.dtype == scan.hits.dtype == np.int32
    assert scan.hits.tolist() == [10 * 256 + 20, -1, -1, -1]
    out = update_occupancy(OccupancyGrid.uniform((256, 256), 50), scan)
    assert out.levels[255, 255] == 50
    touched = np.flatnonzero(out.levels.reshape(-1) != 50)
    np.testing.assert_array_equal(touched, np.union1d(scan.cells, scan.hits[:1]))


# ---------------------------------------------------------------- planning


def corridor(width, unknown=(0,), free_level=10):
    levels = np.full((1, width), free_level, np.uint8)
    for c in unknown:
        levels[0, c] = 50
    return OccupancyGrid(levels)


def mi_of(shape, **cells):
    values = np.zeros(shape)
    for key, v in cells.items():
        values[0, int(key[1:])] = v
    return MIMap(values)


def test_frontier_cells_band():
    levels = np.array([[10, 10, 50, 39, 40, 60, 61, 10]], np.uint8)
    mask = frontier_cells(levels)
    # unknown band is 40..60; frontiers are free cells touching it
    assert list(np.flatnonzero(mask[0])) == [1, 3]


@st.composite
def level_maps(draw):
    """Levels 0..100 on 1..16 rows and columns, about 70 % of them
    passable, and two cells anywhere on the map, passable or not."""
    height, width = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    # one byte a cell: the low half picks a passable level, the high half
    # any level
    raw = np.frombuffer(draw(st.binary(min_size=height * width,
                                       max_size=height * width)), np.uint8)
    levels = np.where(raw < 128, raw % UNKNOWN_LO, raw % 101).astype(np.uint8)
    levels = levels.reshape(height, width)
    cell = cells_of(height, width)
    return levels, CellCoord(*draw(cell)), CellCoord(*draw(cell))


def levels_of(*rows):
    """A level map from strings, "0" a free cell (10) and "1" an unknown
    one (60)."""
    return np.array([[int(c) * 50 + 10 for c in row] for row in rows], np.uint8)


# a 1xN and an Nx1 map, a start on a blocked cell, stop == start, and a
# stop no path reaches
@given(level_maps())
@example((levels_of("000000"), CellCoord(0, 1), CellCoord(0, 5)))
@example((levels_of(*"000100"), CellCoord(5, 0), CellCoord(0, 0)))
@example((levels_of("0000", "0100", "0000"), CellCoord(1, 1), CellCoord(2, 3)))
@example((levels_of("000", "010", "000"), CellCoord(2, 2), CellCoord(2, 2)))
@example((levels_of("00100", "00100", "00100"), CellCoord(0, 0), CellCoord(1, 4)))
def test_bfs_matches_queue_oracle(case):
    levels, start, stop = case
    want = oracles.oracle_bfs_distances(levels < UNKNOWN_LO, start)
    np.testing.assert_array_equal(_bfs_distances(levels, start), want)
    # stopped at a reachable cell, the search holds every count up to the
    # stop's and none beyond it; an unreachable stop changes nothing
    cut = want[stop] if want[stop] >= 0 else want.max()
    np.testing.assert_array_equal(_bfs_distances(levels, start, stop=stop),
                                  np.where(want <= cut, want, -1))


@given(level_maps())
def test_step_toward_takes_first_nearer_neighbour(case):
    levels, pos, goal = case
    height, width = levels.shape
    dist = oracles.oracle_bfs_distances(levels < UNKNOWN_LO, goal)
    r, c = pos
    here = dist[pos]
    want = None
    if here >= 0:
        want = next((CellCoord(nr, nc) for nr, nc in
                     ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                     if 0 <= nr < height and 0 <= nc < width
                     and 0 <= dist[nr, nc] < here), None)
    assert _step_toward(levels, pos, goal, _GoalSearch()) == want


MOVES = st.sampled_from(["follow", "follow", "follow", "jump", "goal",
                         "edit_free", "edit_band", "edit_any"])


@given(level_maps(), st.lists(MOVES, min_size=1, max_size=30),
       st.integers(0, 2 ** 32 - 1))
def test_step_toward_reusing_its_search_matches_a_fresh_search(case, moves, seed):
    # a replayed walk: the robot follows its moves, jumps, changes goal, or
    # a cell's level changes, within the free band, within the blocked
    # band, or anywhere; every move with the shared search is the move of
    # a fresh one
    levels, pos, goal = case
    rng = np.random.default_rng(seed)
    height, width = levels.shape
    last = _GoalSearch()
    for move in moves:
        if move == "jump":
            pos = CellCoord(int(rng.integers(height)), int(rng.integers(width)))
        elif move == "goal":
            goal = CellCoord(int(rng.integers(height)), int(rng.integers(width)))
        elif move.startswith("edit"):
            levels = levels.copy()
            cell = int(rng.integers(height)), int(rng.integers(width))
            lo, hi = {"edit_free": (0, UNKNOWN_LO), "edit_band": (UNKNOWN_LO, 101),
                      "edit_any": (0, 101)}[move]
            if (levels[cell] < UNKNOWN_LO) == (lo == 0) or move == "edit_any":
                levels[cell] = rng.integers(lo, hi)
        want = _step_toward(levels, pos, goal, _GoalSearch())
        assert _step_toward(levels, pos, goal, last) == want
        if move == "follow" and want is not None:
            pos = want


def test_step_toward_searches_once_along_an_unchanged_path(monkeypatch):
    # on an open map the moves toward one goal take one search until the
    # free mask changes; a change inside the free band keeps it
    levels = np.full((6, 9), 10, dtype=np.uint8)
    searches = []
    bfs = explore._bfs_distances

    def counted(*args, **kwargs):
        searches.append(args[1])
        return bfs(*args, **kwargs)

    monkeypatch.setattr(explore, "_bfs_distances", counted)
    pos, goal, last = CellCoord(5, 0), CellCoord(0, 8), _GoalSearch()
    for _ in range(4):
        pos = _step_toward(levels, pos, goal, last)
    levels[3, 3] = 20
    pos = _step_toward(levels, pos, goal, last)
    assert searches == [goal]
    levels[5, 8] = 80
    while pos != goal:
        pos = _step_toward(levels, pos, goal, last)
    assert searches == [goal, goal]


def test_gbl_prefers_higher_mi_at_equal_distance():
    grid = corridor(11, unknown=(0, 10))
    pos = CellCoord(0, 5)
    pick = gbl_select(mi_of((1, 11), c1=3.0, c9=1.0), grid, pos)
    assert pick == CellCoord(0, 1)
    pick = gbl_select(mi_of((1, 11), c1=1.0, c9=3.0), grid, pos)
    assert pick == CellCoord(0, 9)


def test_gbl_prefers_nearer_at_equal_mi():
    grid = corridor(33, unknown=(0, 32))
    pos = CellCoord(0, 11)  # distances 10 and 20
    pick = gbl_select(mi_of((1, 33), c1=2.0, c31=2.0), grid, pos)
    assert pick == CellCoord(0, 1)


def test_gbl_distance_discount_beats_raw_mi():
    # U = MI * exp(-0.05 d): 2.0 at d=0 vs 3.0 at d=9 -> 3 e^-0.45 = 1.913
    grid = corridor(12, unknown=(0, 11))
    pos = CellCoord(0, 1)
    pick = gbl_select(mi_of((1, 12), c1=2.0, c10=3.0), grid, pos)
    assert pick == CellCoord(0, 1)
    assert 3.0 * math.exp(-0.05 * 9) < 2.0


def test_gbl_row_major_tie_break():
    grid = corridor(11, unknown=(0, 10))
    pos = CellCoord(0, 5)
    pick = gbl_select(mi_of((1, 11), c1=2.0, c9=2.0), grid, pos)
    assert pick == CellCoord(0, 1)


def test_gbl_ignores_unreachable_candidates():
    grid = corridor(11, unknown=(0, 10))
    levels = grid.levels.copy()
    levels[0, 7] = 95  # wall cuts off the right frontier
    grid = OccupancyGrid(levels)
    pos = CellCoord(0, 5)
    pick = gbl_select(mi_of((1, 11), c1=1.0, c9=9.0), grid, pos)
    assert pick == CellCoord(0, 1)


def test_gbl_none_when_exploration_complete():
    pos = CellCoord(0, 2)
    fully_known = corridor(5, unknown=())
    assert gbl_select(MIMap(np.ones((1, 5))), fully_known, pos) is None
    all_unknown = OccupancyGrid.uniform((1, 5), 50)
    assert gbl_select(MIMap(np.ones((1, 5))), all_unknown, pos) is None


@pytest.mark.parametrize("map_shape", [(8, 8), (3, 3)])
def test_gbl_rejects_a_map_of_another_shape(map_shape):
    # a larger map would be read at the wrong cells, a smaller one past
    # its edge; either names both shapes
    levels = np.full((5, 5), 50, np.uint8)
    levels[:, :2] = 0
    with pytest.raises(ValueError, match=rf"{map_shape}.*\(5, 5\)"):
        gbl_select(MIMap(np.ones(map_shape)), OccupancyGrid(levels), CellCoord(0, 0))


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_gbl_select_matches_scan_oracle(height, width, n_values, seed):
    # few distinct MI values, zero among them, make utility ties common
    rng = np.random.default_rng(seed)
    levels = rng.choice(np.array([0, 50, 100], dtype=np.uint8), (height, width),
                        p=[0.5, 0.35, 0.15])
    values = rng.integers(0, n_values, (height, width)) / 2.0
    pos = CellCoord(int(rng.integers(height)), int(rng.integers(width)))
    dist = _bfs_distances(levels, pos)
    want = oracles.oracle_gbl_select(values, frontier_cells(levels) & (dist >= 0),
                                     dist, UTILITY_DECAY)
    assert gbl_select(MIMap(values), OccupancyGrid(levels), pos) == want


# ---------------------------------------------------------------- trials


def trial_env():
    return box_env(15, extra=[(7, c) for c in range(2, 9)] + [(r, 10) for r in range(2, 6)])


def golden_trials(data_dir):
    sensor = SensorConfig(12)
    for scene, platform in (("scene_a", "fpga"), ("scene_b", "gpu"), ("scene_c", "fpga")):
        env = Environment.from_grid(read_grid(data_dir / f"{scene}.grid"))
        yield (f"{scene} {platform} seed 3 max_steps 40",
               run_trial(env, sensor, platform=PLATFORMS[platform], seed=3, max_steps=40))
    for seed in (0, 1):
        yield f"trial_env fpga seed {seed}", run_trial(trial_env(), sensor, seed=seed)


def golden_trial_digests(data_dir) -> str:
    """One line per trial: the sha256 of its ``TrialLog.to_csv()`` text."""
    return "".join(f"{name} {hashlib.sha256(log.to_csv().encode()).hexdigest()}\n"
                   for name, log in golden_trials(data_dir))


def test_trial_csvs_match_golden(data_dir):
    # pins every byte of the logs: one scan, update or planning step that
    # moves the robot or a level shows here
    assert golden_trial_digests(data_dir) == GOLDEN_TRIALS.read_text()


@pytest.fixture(scope="module")
def replans(data_dir):
    """Every replan of the scene_a, seed 3, fpga trial at 60 rays: the
    fixed-point map the planner read, the float map of the same basis
    grid, and the goals ``gbl_select`` picks on each."""
    engine, select = explore.compute_mi_map_fxp, explore.gbl_select
    basis, out = [], []

    def recorded_engine(grid, *args, **kwargs):
        basis.append(grid)
        return engine(grid, *args, **kwargs)

    def recorded_select(mi_map, grid, pos):
        ref = compute_mi_map(basis[-1], SensorConfig())
        out.append((mi_map, ref, select(mi_map, grid, pos), select(ref, grid, pos)))
        return out[-1][2]

    env = Environment.from_grid(read_grid(data_dir / "scene_a.grid"))
    explore.compute_mi_map_fxp, explore.gbl_select = recorded_engine, recorded_select
    try:
        run_trial(env, SensorConfig(), seed=3)
    finally:
        explore.compute_mi_map_fxp, explore.gbl_select = engine, select
    return out


def test_trial_planner_picks_the_float_engines_goals(replans):
    # the planner's goal on the fixed-point map is the one the float map
    # of the same basis gives, at every replan
    assert [fxp_goal for _, _, fxp_goal, _ in replans] == [
        ref_goal for _, _, _, ref_goal in replans]
    assert len(replans) == 23


def test_trial_planner_maps_within_accuracy_bound(replans):
    # planner maps hold the clamp levels 1 and 99, not 0 and 100, so their
    # free cells run the exp near x = 0; at the middle and the last replan
    # the normalized fixed-point map stays within 0.05 of the float one
    for mi_map, ref, _, _ in (replans[len(replans) // 2], replans[-1]):
        assert mi_map.saturations == 0
        assert np.abs(mi_map.normalized() - ref.normalized()).max() < 0.05


def test_trial_log_invariants():
    log = run_trial(trial_env(), SensorConfig(12), seed=0, max_steps=120)
    assert log.complete
    rows = log.rows
    assert [r.step for r in rows] == list(range(1, len(rows) + 1))
    for a, b in zip(rows, rows[1:]):
        assert b.trajectory_cells - a.trajectory_cells in (0, 1)
        assert b.entropy_nats <= a.entropy_nats + 1e-12
        assert b.mi_computes >= a.mi_computes
    fpga = PLATFORMS["fpga"]
    for r in rows:
        assert r.mi_energy_j == r.mi_computes * fpga.mi_energy_j  # exact


def test_trial_fast_platform_map_always_fresh():
    # 1.55 ms compute inside a 33 ms scan period: one compute per scan,
    # finished before the next tick, idle in between
    log = run_trial(trial_env(), SensorConfig(12), seed=0, max_steps=120)
    assert all(r.mi_computes == r.step - 1 for r in log.rows)


def test_trial_slow_platform_lags_and_spends_more():
    env = trial_env()
    fast = run_trial(env, SensorConfig(12), seed=0, max_steps=300)
    slow = run_trial(env, SensorConfig(12), platform=PLATFORMS["gpu"],
                     seed=0, max_steps=300)
    assert slow.rows[-1].mi_computes < slow.rows[-1].step - 1  # stale maps
    ratio = (slow.rows[-1].mi_energy_j / fast.rows[-1].mi_energy_j)
    assert ratio > 500.0


def test_trial_determinism():
    kw = dict(sensor=SensorConfig(12), seed=3, max_steps=80)
    a = run_trial(trial_env(), **kw)
    b = run_trial(trial_env(), **kw)
    assert a.to_csv() == b.to_csv()
    assert a.rows == b.rows and a.complete == b.complete


def test_trial_seed_changes_start():
    a = run_trial(trial_env(), SensorConfig(12), seed=0, max_steps=5)
    b = run_trial(trial_env(), SensorConfig(12), seed=1, max_steps=5)
    assert a.to_csv() != b.to_csv()


def test_trial_errors():
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scan_rate_hz must be positive and finite"):
            run_trial(trial_env(), scan_rate_hz=rate)
    full = Environment(np.ones((4, 4), bool))
    with pytest.raises(ValueError, match="no free cell"):
        run_trial(full)


def test_trial_csv_shape():
    log = run_trial(trial_env(), SensorConfig(12), seed=0, max_steps=40)
    lines = log.to_csv().splitlines()
    assert lines[0] == "step,sim_time_s,trajectory_cells,entropy_nats,mi_computes,mi_energy_j"
    assert len(lines) == len(log.rows) + 1
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0.000000000"


def test_entropy_at_lookup():
    log = TrialLog(rows=[
        TrialRow(1, 0.0, 0, 100.0, 0, 0.0),
        TrialRow(2, 0.1, 1, 90.0, 1, 1.0),
        TrialRow(3, 0.2, 1, 80.0, 2, 2.0),
        TrialRow(4, 0.3, 2, 70.0, 3, 3.0),
    ])
    assert log.entropy_at(0) == 100.0
    assert log.entropy_at(1) == 80.0   # last row at that length
    assert log.entropy_at(5) == 70.0


def test_platform_profile_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="mi_latency_s must be positive and finite"):
            PlatformProfile(bad, 1.0)
        with pytest.raises(ValueError, match="mi_energy_j must be positive and finite"):
            PlatformProfile(1.0, bad)
