"""Grid containers, scan-line geometry, and the on-disk formats.

The exploration scan is the only caster of single beams, so the beam
tests run it on all-free (or random) scenes and check what it reads from
the line families against the scalar oracle.
"""

import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from mimap import datapath, gridio, reference
from mimap import grid as grid_module
from mimap.explore import Environment, simulate_scan
from mimap.grid import (
    CellCoord,
    FcmiParams,
    LaneBlock,
    MIMap,
    OccupancyGrid,
    SensorConfig,
    SweepMemo,
    cell_width,
    lane_blocks,
    line_family,
    sweep,
)
from mimap.gridio import (
    GridFormatError,
    read_grid,
    read_mi_map,
    write_grid,
    write_mi_map,
    write_pgm,
)

# squares (ids as before), a single row, a single column and a
# non-square shape
FAMILY_SHAPES = {"5": (5, 5), "16": (16, 16), "33": (33, 33),
                 "1x17": (1, 17), "13x1": (13, 1), "9x14": (9, 14)}


# ---------------------------------------------------------------- containers


def test_grid_rejects_out_of_range_levels():
    with pytest.raises(ValueError):
        OccupancyGrid(np.array([[50, 101]]))
    with pytest.raises(ValueError):
        OccupancyGrid(np.array([[-1, 50]]))
    with pytest.raises(ValueError):
        OccupancyGrid(np.zeros((0, 4)))
    for resolution in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            OccupancyGrid(np.full((3, 3), 50), resolution=resolution)
    for levels in ([[np.nan, 50.0]], [[0.0, 50.7]], [[np.inf, 50.0]]):
        with pytest.raises(ValueError):
            OccupancyGrid(np.array(levels))
    whole = OccupancyGrid(np.array([[0.0, 50.0, 100.0]]))
    np.testing.assert_array_equal(whole.levels, [[0, 50, 100]])


def test_grid_uniform():
    g = OccupancyGrid.uniform((2, 3), level=50, resolution=0.1)
    assert g.levels.dtype == np.uint8
    assert g.shape == (2, 3)
    np.testing.assert_array_equal(g.levels, np.full((2, 3), 50))
    assert g.resolution == 0.1


def test_sensor_headings_tile_the_circle():
    s = SensorConfig(ray_count=60)
    assert s.delta_theta == pytest.approx(2 * math.pi / 60, rel=0, abs=0)
    assert len(s.angles) == 60
    assert s.angles[0] == 0.0
    np.testing.assert_allclose(np.diff(s.angles), s.delta_theta, atol=1e-12)
    with pytest.raises(ValueError):
        SensorConfig(ray_count=0)
    with pytest.raises(ValueError):
        SensorConfig(max_range=0.0)


def test_fcmi_params_cap_must_exceed_one():
    assert FcmiParams(1e7).log_lambda_cap == pytest.approx(math.log(1e7))
    with pytest.raises(ValueError):
        FcmiParams(1.0)


def test_mi_map_normalized_handles_constant_maps():
    flat = MIMap(np.full((3, 3), 2.5))
    np.testing.assert_array_equal(flat.normalized(), np.zeros((3, 3)))
    m = MIMap(np.array([[0.0, 1.0], [3.0, 4.0]]))
    n = m.normalized()
    assert n.min() == 0.0 and n.max() == 1.0


# ---------------------------------------------------------------- cell width


def test_cell_width_closed_forms():
    assert cell_width(0.0, 0.1) == pytest.approx(0.1, rel=0, abs=0)
    assert cell_width(math.pi / 4, 0.1) == pytest.approx(0.1 * math.sqrt(2), rel=1e-15)
    assert cell_width(math.pi / 2, 0.25) == pytest.approx(0.25, rel=1e-15)


def test_cell_width_sixty_headings_collapse_to_eight_values():
    # 60 evenly spaced headings fold onto 8 distinct widths by symmetry
    widths = sorted(cell_width(a, 0.1) for a in SensorConfig(60).angles)
    distinct = [widths[0]]
    for w in widths[1:]:
        if w - distinct[-1] > 1e-12:
            distinct.append(w)
    assert len(distinct) == 8


@given(st.floats(-10.0, 10.0), st.floats(0.01, 5.0))
def test_cell_width_bounds(angle, resolution):
    w = cell_width(angle, resolution)
    assert resolution - 1e-12 <= w <= resolution * math.sqrt(2) + 1e-12


# ---------------------------------------------------------------- beams


def free_env(bounds, resolution=1.0):
    return Environment(np.zeros(bounds, bool), resolution)


def scan_ray(env, pose, sensor, k):
    """Ray ``k`` of the scan from ``pose`` as plain (row, col) tuples: the
    traversed cells, then the hit cell if there is one."""
    scan = simulate_scan(env, CellCoord(*pose), sensor)
    cells, hit = oracles.ray_coords(scan, k, env.shape[1])
    return cells + [hit] if hit is not None else cells


def test_beam_along_a_row():
    assert scan_ray(free_env((1, 6)), (0, 0), SensorConfig(4), 0) == [
        (0, c) for c in range(6)]


def test_beam_along_the_main_diagonal():
    assert scan_ray(free_env((4, 4)), (0, 0), SensorConfig(8), 1) == [
        (k, k) for k in range(4)]


@pytest.mark.parametrize("bounds", [(5, 5), (3, 5), (6, 10)])
def test_beam_matches_incremental_dda_at_shallow_angle(bounds):
    # the anchored DDA agrees with the family rule when the pose sits at
    # major coordinate zero: ray 5 of 60 (30 degrees) cast by the scan, and
    # the family line through (0, 0) at slope 1/2, whose odd columns land
    # on exact rounding ties
    sensor = SensorConfig(60)
    angle = float(sensor.angles[5])
    assert scan_ray(free_env(bounds), (0, 0), sensor, 5) == oracles.dda_beam_cells(
        (0, 0), angle, bounds)
    tie = math.atan2(1.0, 2.0)
    assert family_beam(tie, bounds, (0, 0)) == oracles.dda_beam_cells((0, 0), tie, bounds)


@st.composite
def scenes(draw):
    """A random scene of 1..12 rows and columns with a free pose on it."""
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    occupied = np.array(draw(st.lists(st.booleans(), min_size=height * width,
                                      max_size=height * width)),
                        bool).reshape(height, width)
    pose = (draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1)))
    occupied[pose] = False
    return occupied, pose


@given(
    scenes(),
    st.integers(1, 13),
    st.sampled_from([0.1, 0.37, 1.0]),
    st.one_of(st.just(math.inf), st.floats(0.05, 20.0)),
)
def test_beam_properties(scene, ray_count, resolution, max_range):
    # every ray equals the oracle beam, cut at max_range and at the first
    # occupied cell; 1xN, Nx1 and ray counts not divisible by 4 included
    occupied, pose = scene
    sensor = SensorConfig(ray_count, max_range)
    scan = simulate_scan(Environment(occupied, resolution), CellCoord(*pose), sensor)
    assert len(scan.start) == ray_count + 1 and scan.start[0] == 0
    assert scan.start[-1] == len(scan.cells)
    assert scan.cells.dtype == scan.hits.dtype == np.int32
    assert ((scan.hits == -1) | ((0 <= scan.hits) & (scan.hits < occupied.size))).all()
    for i, angle in enumerate(sensor.angles):
        traversed, hit = oracles.oracle_scan_ray(occupied, pose, float(angle),
                                                 resolution, max_range)
        got_traversed, got_hit = oracles.ray_coords(scan, i, occupied.shape[1])
        assert got_traversed == traversed
        assert got_hit == hit
        cells = traversed + ([hit] if hit is not None else [])
        assert cells[0] == pose  # the pose is free, so the beam starts there
        rows = np.array([c[0] for c in cells])
        cols = np.array([c[1] for c in cells])
        major = cols if abs(math.cos(angle)) >= abs(math.sin(angle)) else rows
        assert np.all(np.abs(np.diff(major)) == 1)  # one major step per cell


@given(scenes(), st.sampled_from([0.1, 1.0]))
def test_each_sensor_scans_an_environment_with_its_own_beams(scene, resolution):
    # one environment, two sensors taking turns: each reads the stop
    # tables of its own headings and reach (1e308 overflows the reach at
    # 0.1 m and keeps a huge finite one at 1 m)
    occupied, pose = scene
    env = Environment(occupied, resolution)
    sensors = (SensorConfig(7, 2.5), SensorConfig(12, 1e308))
    for sensor in sensors + sensors:
        scan = simulate_scan(env, CellCoord(*pose), sensor)
        assert len(scan.hits) == sensor.ray_count
        for i, angle in enumerate(sensor.angles):
            want = oracles.oracle_scan_ray(occupied, pose, float(angle), resolution,
                                           sensor.max_range)
            assert oracles.ray_coords(scan, i, occupied.shape[1]) == want


# ---------------------------------------------------------------- families


@pytest.mark.parametrize("bounds", FAMILY_SHAPES.values(), ids=FAMILY_SHAPES.keys())
def test_family_covers_every_cell_once(bounds):
    # every row of the stacked table is a permutation of the cells, and
    # is the family line_family builds alone for that heading; up to
    # 65 536 cells the table holds them as uint16
    n_cells = bounds[0] * bounds[1]
    table, fams = grid_module.family_table(60, *bounds)
    assert table.shape == (60, n_cells) and table.dtype == np.uint16
    assert table.flags.c_contiguous
    for k, angle in enumerate(SensorConfig(60).angles):
        counts = np.bincount(table[k], minlength=n_cells)
        assert counts.min() == 1 and counts.max() == 1, f"angle {angle}"
        fam = line_family(angle, bounds)
        assert fam.cells.dtype == np.int32
        assert fam.seg_start.dtype == fam.seg_phase.dtype == np.int64
        np.testing.assert_array_equal(table[k], fam.cells)
        np.testing.assert_array_equal(fams[k].seg_start, fam.seg_start)
        np.testing.assert_array_equal(fams[k].seg_phase, fam.seg_phase)
        assert fams[k].n_units == fam.n_units
    # a line runs along its heading's major axis, one cell per major
    # coordinate, so no lane is longer than the grid's longer side; the
    # Q20.12 engine bounds its words over that many steps
    assert grid_module._lane_block(60, 0, 60, bounds).lane_len[0] <= max(bounds)


@pytest.mark.parametrize("bounds, dtype", [((256, 256), np.uint16),
                                           ((256, 257), np.int32)],
                         ids=["65536", "65792"])
def test_family_table_type_switches_past_65536_cells(bounds, dtype):
    # the cells are uint16 while every index fits, int32 past that; either
    # way each row is line_family's int32 cells, the scan's position table
    # inverts it, and its stop table holds entries in the same type
    n_cells = bounds[0] * bounds[1]
    sensor = SensorConfig(3)
    table, _ = grid_module.family_table(sensor.ray_count, *bounds)
    assert table.dtype == dtype
    env = Environment(np.zeros(bounds, dtype=bool))
    simulate_scan(env, CellCoord(0, 0), sensor)
    position, stop = env._scan_tables[sensor]
    assert position.dtype == stop.dtype == dtype
    assert stop.min() >= 0 and stop.max() < n_cells
    for k, angle in enumerate(sensor.angles):
        np.testing.assert_array_equal(np.sort(table[k]), np.arange(n_cells))
        np.testing.assert_array_equal(table[k], line_family(angle, bounds).cells)
        np.testing.assert_array_equal(position[k, table[k]], np.arange(n_cells))


def test_family_table_is_one_read_only_store(monkeypatch):
    # the engines' lane blocks, a memo's blocks, the scan and the cycle
    # model all read the one cached table, so no reader may write it
    bounds, sensor = (9, 14), SensorConfig(12)
    stored = grid_module.family_table(sensor.ray_count, *bounds)
    assert grid_module.family_table(sensor.ray_count, *bounds) is stored
    table, fams = stored
    with pytest.raises(ValueError):
        table[3][0] = 1
    with pytest.raises(ValueError):
        fams[3].cells[0] = 1
    assert all(np.shares_memory(fam.cells, table[k]) for k, fam in enumerate(fams))
    monkeypatch.setattr(grid_module, "LANE_BLOCK_CELLS", 5 * 9 * 14)
    blocks = list(lane_blocks(sensor.ray_count, bounds))
    assert len(blocks) == 3
    for block in blocks:
        assert np.shares_memory(block.cells, table)
        with pytest.raises(ValueError):
            block.cells[0] = 1
    memo = SweepMemo()
    levels = np.random.default_rng(6).integers(0, 101, bounds, dtype=np.uint8)
    sweep(levels, sensor.ray_count, np.zeros((1, 12 * 101)),
          lambda state, cols: cols[0], add_rows, np.float64, memo, "k")
    # the memo's one block holds all 12 headings, as the whole table
    assert memo.block.first == 0 and len(memo.block.cells) == 12 * 9 * 14
    assert memo.block.cells.base is table
    env = Environment(np.zeros(bounds, dtype=bool))
    simulate_scan(env, CellCoord(4, 5), sensor)
    # the scan entry holds only its own two tables, in the table's type
    position, stop = env._scan_tables[sensor]
    assert position.shape == stop.shape == table.shape
    assert position.dtype == stop.dtype == table.dtype


def test_family_wrap_units_have_equal_totals():
    # wrap unit j is cells[j*U:(j+1)*U]: the units fill the family and
    # each starts a line
    for bounds, angle in itertools.product([(33, 33), (1, 17), (13, 1)],
                                           SensorConfig(60).angles):
        fam = line_family(angle, bounds)
        size = len(fam.cells) // fam.n_units
        assert fam.n_units * size == len(fam.cells)
        assert set(range(0, len(fam.cells) + 1, size)) <= set(fam.seg_start.tolist())


def test_lane_blocks_lay_out_every_line_of_every_heading(monkeypatch):
    bounds, sensor = (7, 12), SensorConfig(10)
    n_cells = 7 * 12
    monkeypatch.setattr(grid_module, "LANE_BLOCK_CELLS", 4 * n_cells)
    blocks = list(lane_blocks(sensor.ray_count, bounds))
    assert [len(b.cells) // n_cells for b in blocks] == [4, 4, 2]
    first = 0
    for b in blocks:
        lines = {}
        for k in range(len(b.cells) // n_cells):
            fam = line_family(sensor.angles[first + k], bounds)
            np.testing.assert_array_equal(b.cells[k * n_cells:(k + 1) * n_cells],
                                          fam.cells)
            lines[first + k] = sorted(oracles.family_line(fam, i).tolist()
                                      for i in range(fam.n_lines))
        assert np.all(np.diff(b.lane_len) <= 0)  # longest lane first
        got = {h: [] for h in lines}
        assert b.first == first
        for start, n in zip(b.lane_start, b.lane_len):
            got[first + int(start) // n_cells].append(b.cells[start:start + n].tolist())
        assert {h: sorted(v) for h, v in got.items()} == lines
        first += len(b.cells) // n_cells


LANE_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 14)),
    st.tuples(st.integers(1, 14), st.just(1)),
    st.tuples(st.integers(2, 11), st.integers(2, 11)),
)


@given(LANE_SHAPES, st.integers(1, 13), st.integers(1, 5),
       st.sampled_from([0.0, 0.05, 0.3, 1.0]), st.integers(0, 2 ** 32 - 1))
def test_lane_table_touches_the_lanes_the_running_count_finds(
        shape, rays, per_block, share, seed):
    # every block of every layout, one to five headings a block: the lanes
    # the lane table finds for the changed cells are those whose span of
    # block positions holds a changed cell
    n_cells = shape[0] * shape[1]
    changed = np.random.default_rng(seed).random(n_cells) < share
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid_module, "LANE_BLOCK_CELLS", per_block * n_cells)
        blocks = list(lane_blocks(rays, shape))
    assert len(blocks) == -(-rays // per_block)
    for block in blocks:
        lane_of = grid_module._lane_table(block, n_cells)
        got = grid_module._touched_lanes(lane_of, len(block.lane_start),
                                         np.flatnonzero(changed))
        want = oracles.oracle_touched_lanes(block.cells, block.lane_start,
                                            block.lane_len, changed)
        np.testing.assert_array_equal(got, want)


def add_rows(acc, rows):
    """A ``sweep`` fold: the block's heading rows added into ``acc``."""
    for part in rows:
        acc += part


@pytest.mark.parametrize("buf_dtype", [np.float64, np.int32])
@pytest.mark.parametrize("per_block", [1, 4, 10])
def test_sweep_steps_every_line_in_scan_order_and_folds_by_heading(
        monkeypatch, per_block, buf_dtype):
    bounds, sensor = (7, 12), SensorConfig(10)
    n_cells = 7 * 12
    monkeypatch.setattr(grid_module, "LANE_BLOCK_CELLS", per_block * n_cells)
    levels = np.random.default_rng(3).integers(0, 101, bounds, dtype=np.uint8)
    table = np.repeat(np.arange(1, 11), 101)[None, :]  # column h*101 + l: h + 1

    def step(state, cols):
        state[0] += 1  # cells absorbed so far
        return state[0] * 1000 + cols[0]

    want = np.zeros(n_cells, dtype=np.int64)
    for h, angle in enumerate(sensor.angles):
        fam = line_family(angle, bounds)
        for i in range(fam.n_lines):
            cells = oracles.family_line(fam, i)
            want[cells] += np.arange(1, len(cells) + 1) * 1000 + h + 1
    got = sweep(levels, sensor.ray_count, table, step, add_rows, buf_dtype)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)

    # an order-sensitive fold shows every cell gets its headings in order,
    # each block's headings as the rows of one fold call
    blocks = []

    def fold_in_order(acc, rows):
        blocks.append(rows.shape)
        for part in rows:
            acc *= 11
            acc += part % 1000

    got = sweep(levels, sensor.ray_count, table, step, fold_in_order, buf_dtype)
    want = np.zeros(n_cells, dtype=np.int64)
    for h in range(10):
        want = want * 11 + h + 1
    np.testing.assert_array_equal(got, want)
    assert blocks == [(min(per_block, 10 - k), n_cells) for k in range(0, 10, per_block)]


@pytest.mark.parametrize("per_block", [1, 4, 10])
def test_sweep_with_memo_steps_only_lines_holding_a_changed_cell(monkeypatch, per_block):
    # per_block sets the layout of the calls without a memo; a memo holds
    # one block of every heading whatever it is
    bounds, sensor = (7, 12), SensorConfig(10)
    n_cells = 7 * 12
    monkeypatch.setattr(grid_module, "LANE_BLOCK_CELLS", per_block * n_cells)
    levels = np.random.default_rng(4).integers(0, 101, bounds, dtype=np.uint8)
    table = np.arange(10 * 101)[None, :]
    stepped = []
    built = []
    n_blocks = -(-10 // per_block)
    lane_block = grid_module._lane_block

    def counted_lane_block(*args):
        built.append(lane_block(*args))
        return built[-1]

    monkeypatch.setattr(grid_module, "_lane_block", counted_lane_block)

    def step(state, cols):
        stepped.append(cols.shape[1])
        state[0] = state[0] * 7 + cols[0]
        return state[0] % 1000

    def visits_of_lines_through(cell):
        lines = [oracles.family_line(fam, i)
                 for fam in (line_family(a, bounds) for a in sensor.angles)
                 for i in range(fam.n_lines)]
        return sum(len(line) for line in lines if cell in line)

    def memo_holds(block, shape=bounds):
        return (memo.block is block and block.first == 0
                and len(block.cells) == 10 * shape[0] * shape[1])

    memo = SweepMemo()
    first = sweep(levels, sensor.ray_count, table, step, add_rows, np.int32, memo, "k")
    assert sum(stepped) == n_cells * 10
    np.testing.assert_array_equal(memo.levels, levels.reshape(-1))
    assert len(built) == 1 and memo_holds(built[0])
    assert isinstance(memo.block, LaneBlock)
    assert len(stepped) == memo.block.lane_len[0]
    edited = levels.copy()
    edited[3, 5] = (edited[3, 5] + 1) % 101
    stepped.clear()
    got = sweep(edited, sensor.ray_count, table, step, add_rows, np.int32, memo, "k")
    # one line of each heading holds the cell; only those lines step, on
    # the block the first call built
    assert sum(stepped) == visits_of_lines_through(3 * 12 + 5)
    assert len(built) == 1 and memo_holds(built[0])
    built.clear()
    cold = sweep(edited, sensor.ray_count, table, step, add_rows, np.int32)
    assert len(built) == n_blocks
    np.testing.assert_array_equal(got, cold)
    assert not np.array_equal(got, first)
    # a cell a line ends at steps that line too
    end = int(oracles.family_line(line_family(sensor.angles[0], bounds), 0)[-1])
    edited.reshape(-1)[end] = (edited.reshape(-1)[end] + 1) % 101
    stepped.clear()
    got = sweep(edited, sensor.ray_count, table, step, add_rows, np.int32, memo, "k")
    assert sum(stepped) == visits_of_lines_through(end)
    cold = sweep(edited, sensor.ray_count, table, step, add_rows, np.int32)
    np.testing.assert_array_equal(got, cold)
    # unchanged levels step no line; under another key they step every
    # line, on a new block, and the old one is dropped
    for key, want, builds in (("k", 0, 0), ("other", n_cells * 10, 1),
                              ("other", 0, 0)):
        stepped.clear()
        built.clear()
        kept = memo.block
        sweep(edited, sensor.ray_count, table, step, add_rows, np.int32, memo, key)
        assert sum(stepped) == want
        assert len(built) == builds and memo_holds(built[0] if builds else kept)
    # with its buffer dropped, as the fixed-point engine does after a
    # saturation, every line steps, on the kept block
    memo.buf = None
    stepped.clear()
    built.clear()
    sweep(edited, sensor.ray_count, table, step, add_rows, np.int32, memo, "other")
    assert sum(stepped) == n_cells * 10 and built == []
    assert len(stepped) == memo.block.lane_len[0]
    # another shape builds its own block
    built.clear()
    sweep(edited[:, :5], sensor.ray_count, table, step, add_rows, np.int32, memo, "other")
    assert len(built) == 1 and memo_holds(built[0], (7, 5))

    # a call that raises leaves the memo empty, so the next call runs cold
    def failing(state, cols):
        raise RuntimeError("step failed")

    with pytest.raises(RuntimeError):
        sweep(levels, sensor.ray_count, table, failing, add_rows, np.int32, memo, "other")
    assert memo.levels is None and memo.buf is None and memo.block is None
    stepped.clear()
    built.clear()
    sweep(edited, sensor.ray_count, table, step, add_rows, np.int32, memo, "other")
    assert sum(stepped) == n_cells * 10 and len(built) == 1


@pytest.mark.parametrize("engine", [reference, datapath])
def test_sweep_without_memo_holds_one_block_at_a_time(monkeypatch, engine):
    # one heading per block; at each build no earlier block's contribution
    # buffer may still be alive, and every block's cells are a view of the
    # shared family table, not a copy the block holds
    monkeypatch.setattr(grid_module, "LANE_BLOCK_CELLS", 1)
    levels = np.random.default_rng(5).integers(0, 101, (9, 13), dtype=np.uint8)
    sensor = SensorConfig(5)
    family = grid_module.family_table(sensor.ray_count, 9, 13)[0]
    firsts, bufs = [], []
    lane_block = grid_module._lane_block

    def checked_lane_block(*args):
        assert all(ref() is None for ref in bufs), "an earlier buffer is alive"
        block = lane_block(*args)
        assert block.cells.base is family
        firsts.append(block.first)
        return block

    def watched_sweep(levels, ray_count, table, step, fold, *args):
        def watched_fold(acc, rows):
            bufs.append(weakref.ref(rows.base))
            fold(acc, rows)

        return sweep(levels, ray_count, table, step, watched_fold, *args)

    monkeypatch.setattr(grid_module, "_lane_block", checked_lane_block)
    monkeypatch.setattr(engine, "sweep", watched_sweep)
    run = engine.compute_mi_map if engine is reference else engine.compute_mi_map_fxp
    got = run(OccupancyGrid(levels), sensor)
    assert firsts == [0, 1, 2, 3, 4] and len(bufs) == 5
    monkeypatch.undo()
    np.testing.assert_array_equal(got.values, run(OccupancyGrid(levels), sensor).values)


def family_lines(angle, bounds):
    """The lines of one heading's family as (row, col) lists in scan order."""
    fam = line_family(angle, bounds)
    width = bounds[1]
    return [[divmod(int(f), width) for f in oracles.family_line(fam, i)]
            for i in range(fam.n_lines)]


def family_beam(angle, bounds, start):
    """The beam from ``start``: its family line read backwards from it."""
    for cells in family_lines(angle, bounds):
        if start in cells:
            # family lines run anti-beam, so the beam reads as a reversed
            # prefix ending at the pose
            return cells[: cells.index(start) + 1][::-1]
    pytest.fail("start cell not covered by the family")


def test_beam_is_suffix_of_its_family_line():
    sensor = SensorConfig(60)  # ray 4: 24 degrees, slope about 3/7
    angle = float(sensor.angles[4])
    bounds = (16, 16)
    env = free_env(bounds)
    for start in [(0, 0), (5, 11), (15, 3), (8, 8)]:
        assert scan_ray(env, start, sensor, 4) == family_beam(angle, bounds, start)


def test_scan_lines_cover_grid_and_share_width():
    # each line, read as the beam from its last scan cell, is the whole
    # line; a range of two cell widths cuts every line to three cells, as
    # all lines of a heading share its cell width
    sensor = SensorConfig(20)  # ray 1: 18 degrees
    angle = float(sensor.angles[1])
    bounds = (9, 13)
    env = free_env(bounds, resolution=0.5)
    short = SensorConfig(20, max_range=2 * cell_width(angle, 0.5))
    seen = set()
    for cells in family_lines(angle, bounds):
        assert scan_ray(env, cells[-1], sensor, 1) == cells[::-1]
        assert scan_ray(env, cells[-1], short, 1) == cells[::-1][:3]
        for cell in cells:
            assert cell not in seen
            seen.add(cell)
    assert len(seen) == 9 * 13


# ---------------------------------------------------------------- file io


def test_read_grid_minimal(tmp_path):
    p = tmp_path / "one.grid"
    p.write_text("1 1 0.1\n50\n")
    g = read_grid(p)
    assert g.shape == (1, 1)
    assert g.resolution == 0.1
    assert g.levels[0, 0] == 50


def test_grid_round_trip(tmp_path, make_grid):
    g = make_grid(201, 201, resolution=0.1)
    p = tmp_path / "rt.grid"
    write_grid(g, p)
    back = read_grid(p)
    assert back.resolution == g.resolution
    np.testing.assert_array_equal(back.levels, g.levels)


def test_read_grid_rejects_bad_level(tmp_path):
    p = tmp_path / "bad.grid"
    p.write_text("1 2 1.0\n50 101\n")
    with pytest.raises(GridFormatError):
        read_grid(p)


def test_read_grid_rejects_short_row(tmp_path):
    p = tmp_path / "short.grid"
    p.write_text("2 3 1.0\n1 2 3\n4 5\n")
    with pytest.raises(GridFormatError):
        read_grid(p)


def test_read_grid_rejects_trailing_row(tmp_path):
    p = tmp_path / "long.grid"
    p.write_text("2 2 0.1\n1 2\n3 4\n7 7\n")
    with pytest.raises(GridFormatError, match="long.grid:4: expected 2 data rows, found more"):
        read_grid(p)


def test_read_mi_map_rejects_trailing_row(tmp_path):
    p = tmp_path / "long.mimap"
    p.write_text("1 2\n0.5 1\n\nfoo bar\n")
    with pytest.raises(GridFormatError, match="long.mimap:4: expected 1 data rows, found more"):
        read_mi_map(p)


def test_readers_accept_blank_trailing_lines(tmp_path):
    g = tmp_path / "blank.grid"
    g.write_text("2 2 0.1\n1 2\n3 4\n\n  \n")
    assert read_grid(g).levels.tolist() == [[1, 2], [3, 4]]
    m = tmp_path / "blank.mimap"
    m.write_text("1 2\n0.5 1\n\t\n")
    assert read_mi_map(m).values.tolist() == [[0.5, 1.0]]


def test_mi_map_round_trip_is_exact(tmp_path, rng):
    values = rng.standard_normal((7, 5)) * 1e-4
    p = tmp_path / "m.mimap"
    write_mi_map(MIMap(values), p)
    back = read_mi_map(p)
    np.testing.assert_array_equal(back.values, values)  # %.17g round-trips


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_read_mi_map_rejects_non_finite_values(tmp_path, token):
    p = tmp_path / "m.mimap"
    p.write_text(f"2 2\n0 1\n0.5 {token}\n")
    with pytest.raises(GridFormatError, match=f"m.mimap:3: field 2: non-finite value '{token}'"):
        read_mi_map(p)


@pytest.mark.parametrize("token", ["1_0", "+5", "\u0663", "5.0", "1e2", "nan", "inf",
                                   "0x10"])
def test_readers_take_a_field_as_int_and_float_do(tmp_path, monkeypatch, token):
    # one np.array parses every field, and the row parsers run only after
    # it fails, to name the bad field: so a field int() (grid) or float()
    # (map) takes is read by that parse alone, and one they reject, or
    # out of range, fails at the row parser's message
    called = []
    for name in ("_level_row", "_value_row"):
        parse_row = getattr(gridio, name)
        monkeypatch.setattr(gridio, name, lambda *args, parse_row=parse_row:
                            called.append(1) or parse_row(*args))
    grid_file, map_file = tmp_path / "g.grid", tmp_path / "m.mimap"
    grid_file.write_text(f"1 2 1.0\n7 {token}\n", encoding="utf-8")
    map_file.write_text(f"1 2\n7 {token}\n", encoding="utf-8")
    for path, read, parse in ((grid_file, lambda p: read_grid(p).levels, int),
                              (map_file, lambda p: read_mi_map(p).values, float)):
        called.clear()
        try:
            want = parse(token)
        except ValueError:
            want = math.nan
        if math.isfinite(want):
            assert read(path).tolist() == [[7, want]]
            assert not called
        else:
            with pytest.raises(GridFormatError, match=f":2: field 2: .*'{token}'"):
                read(path)
            assert called


def test_write_pgm_normalizes_to_full_range(tmp_path):
    p = tmp_path / "m.pgm"
    write_pgm(np.array([[0.0, 0.5], [1.0, 0.25]]), p)
    raw = p.read_bytes()
    header, pixels = raw[:-4], raw[-4:]
    assert header == b"P5\n2 2\n255\n"
    assert pixels == bytes([0, 128, 255, 64])
