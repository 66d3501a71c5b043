"""Fixed-point datapath: occupancy LUT, exponential, step, map.

The scalar Q20.12 chain in ``oracles`` is the bit-exact reference: it
takes the package's LUT words as data, builds its exponential from its
own knots, and checks the exp, the array preprocess, the sweep step and
the map, words and saturation counts.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import mimap.fixedpoint as fx
from mimap import grid as grid_module
from mimap.datapath import (
    _domain_bound,
    _fold,
    _preprocess_rows,
    _sweep_step,
    build_exp_knots,
    build_occ_lut,
    cap_words,
    compute_mi_map_fxp,
    dump_tables,
    exp_neg,
)
from mimap.grid import FcmiParams, OccupancyGrid, SensorConfig, SweepMemo, cell_width
from mimap.reference import compute_mi_map

GOLDEN = Path(__file__).parent / "goldens"

# fragment of an exploration map: free space, walls, frontier pockets of
# unknown and partially updated cells; the regime the error bound targets
EXPLORE_LINE = (
    [0] * 40 + [86] + [50] * 25 + [0] * 35 + [100] + [50] * 30
    + [30] * 10 + [0] * 29 + [86] + [50] * 29
)


def chain() -> oracles.QChain:
    """The scalar oracle chain on the package's LUT words, at the default
    cap."""
    return oracles.QChain(build_occ_lut(), FcmiParams().lambda_cap)


def package_exp(xs) -> list[int]:
    """The package's exp of the words ``xs``, as ints."""
    return [int(e) for e in exp_neg(np.array(xs, dtype=np.float64))]


def package_steps(prev, levels, w_raw: int, dth_raw: int = 0) -> list:
    """The package's sweep step on one lane of heading 0 at the default
    cap, from state ``prev`` over ``levels`` in scan order: (state,
    contribution) after each cell."""
    w = np.array([w_raw], dtype=np.int64)
    caps = cap_words(FcmiParams())
    table, step = _sweep_step(_preprocess_rows(w, sorted(set(levels)), caps), w,
                              caps[0], dth_raw, len(levels))
    lane = np.array(prev, dtype=table.dtype)[:, None]
    out = []
    for level in levels:
        contribution = int(step(lane, table[:, [level]])[0])
        out.append((tuple(int(v) for v in lane[:, 0]), contribution))
    return out


# ---------------------------------------------------------------- occupancy lut


def test_lut_level_50_entry():
    lut = build_occ_lut()
    assert lut.shape == (101, 3) and lut.dtype == np.float64
    assert lut[50, 0] == 2839  # round(4096 ln 2)


def test_lut_matches_extended_precision_oracle():
    lut = build_occ_lut()
    for level in range(1, 100):
        want = oracles.mp_lut_entry(level)
        got = (lut[level, 0], lut[level, 1], lut[level, 2])
        assert got == want, f"level {level}"


def test_lut_faithful_to_half_ulp():
    lut = build_occ_lut()
    for level in range(1, 100):
        o = oracles.mpmath.mpf(level) / 100
        lam = -oracles.mpmath.log(1 - o)
        for raw, exact in (
            (lut[level, 0], lam),
            (lut[level, 1], -oracles.mpmath.log(lam)),
            (lut[level, 2], 1 / lam),
        ):
            assert abs(raw - exact * fx.SCALE) <= 0.5 + 1e-12


# ---------------------------------------------------------------- exponential


def test_exp_knots_match_extended_precision_oracle():
    knots = build_exp_knots()
    assert knots.dtype == np.int64
    assert knots.tolist() == oracles.Q_EXP_KNOTS
    assert knots[0] == 2 ** 20 and knots[32] == 2 ** 19


def test_exp_within_one_ulp_on_every_word():
    # every word x of [-8, 0] against the word nearest to e^x
    xs = np.arange(8 * fx.SCALE + 1)
    want = np.rint(np.exp(-xs / fx.SCALE) * fx.SCALE)
    got = np.array(package_exp(xs))
    assert len(xs) == 32_769
    assert np.abs(got - want).max() <= 1
    assert got[0] == fx.ONE_RAW
    assert np.all(np.diff(got) <= 0)


def test_exp_point_examples():
    # e^-1 = 0.36788 and e^-ln 2 = 0.5: x = round(4096 ln 2) = 2839
    assert package_exp([0, fx.ONE_RAW, 2839]) == [fx.ONE_RAW, 1507, 2048]


def test_exp_is_zero_past_the_shifter():
    # n = floor(x log2 e) passes 40 at the word x = 116 405 (41 ln 2 is
    # 116 404.6 words); e^-x is 0 well before, and past it the largest
    # words stay 0 without shifting by more than 48
    xs = [116_404, 116_405, 10 ** 9, fx.RAW_MAX]
    assert package_exp(xs) == [0, 0, 0, 0]
    assert np.all(np.diff(package_exp(np.arange(0, fx.RAW_MAX, 65_537))) <= 0)


def test_exp_matches_scalar_chain_on_every_word():
    # every word of [0, 10], the words around n = 40, and the largest
    # words, against the oracle's exp from its own knots
    q = chain()
    xs = (list(range(10 * fx.SCALE + 1)) + list(range(116_000, 117_000))
          + [2 ** 30, fx.RAW_MAX - 1, fx.RAW_MAX])
    sat0 = fx.saturation_count()
    got = package_exp(xs)
    assert fx.saturation_count() == sat0
    assert got == [q.exp_neg(x) for x in xs]
    assert q.saturations == 0


# ---------------------------------------------------------------- preprocess


@pytest.mark.parametrize("resolution", [0.1, 1.0, 1e5, 1e9])
def test_preprocess_rows_match_scalar_chain(resolution):
    # all 101 levels of every heading of a 60-ray sensor against the
    # scalar chain, saturation count included; at 1e5 and 1e9 m the
    # products clip
    q = chain()
    w_raws = [fx.encode(cell_width(float(a), resolution))
              for a in SensorConfig(60).angles]
    sat0 = q.saturations
    want = [[q.preprocess(level, w) for level in range(101)] for w in w_raws]
    scalar_sats = q.saturations - sat0
    sat0 = fx.saturation_count()
    rows = _preprocess_rows(np.array(w_raws), list(range(101)), cap_words(FcmiParams()))
    assert fx.saturation_count() - sat0 == scalar_sats
    assert (scalar_sats > 0) == (resolution > 1.0)
    assert rows.dtype == np.float64
    np.testing.assert_array_equal(rows, np.rint(rows))
    np.testing.assert_array_equal(rows, np.array(want).reshape(-1, 6).T)


# ---------------------------------------------------------------- step


def test_step_fxp_free_cell_is_exact_passthrough():
    prev = (1111, -222, 3333, 444)
    w = fx.encode(0.125)
    q = chain()
    want = (q.add(prev[0], q.mul(w, prev[2])), q.add(prev[1], q.mul(w, prev[3])),
            prev[2], prev[3])
    assert q.step(prev, q.preprocess(0, w), w) == want
    assert package_steps(prev, [0], w)[0][0] == want


def test_step_fxp_occupied_cell_encodes_float_limits():
    k1, occ_a1, occ_b1 = cap_words(FcmiParams())
    cap, ln_cap = 1e7, math.log(1e7)
    assert occ_a1 == fx.encode((2.0 - ln_cap) / cap)
    assert occ_b1 == fx.encode(1.0 / cap)
    assert k1 == fx.encode(1.0 - ln_cap)
    want = (occ_a1, occ_b1, fx.encode(1.0 - ln_cap), fx.encode(1.0))
    q = chain()
    w = fx.encode(1.0)
    for prev in ((0, 0, 0, 0), (9999, -9999, 1234, 5678)):
        assert q.step(prev, q.preprocess(100, w), w) == want
        assert package_steps(prev, [100], w)[0][0] == want


def test_step_fxp_half_occupied_beta0():
    q = chain()
    (state, _), = package_steps((0, 0, 0, 0), [50], fx.encode(1.0))
    # x = lam*w = round(4096 ln 2) at w = 1
    assert state[3] == q.sub(fx.ONE_RAW, q.exp_neg(2839))
    assert state[3] == fx.ONE_RAW - package_exp([2839])[0] == 2048


def test_step_fxp_chain_tracks_float_reference():
    # one full-length scan line; the package step gives the scalar chain's
    # words, and fixed and float contributions agree to well under the
    # 0.05 normalized accuracy budget
    levels = EXPLORE_LINE
    n = len(levels)
    assert n == 201
    resolution = 0.1
    grid = OccupancyGrid(np.array([levels], dtype=np.uint8), resolution)
    # one heading (angle 0) sweeps the row once, over the full circle
    ref = compute_mi_map(grid, SensorConfig(1), FcmiParams()).values[0] / 60

    w_raw = fx.encode(cell_width(0.0, resolution))
    dth_raw = fx.encode(SensorConfig(60).delta_theta)
    q = chain()
    got = package_steps((0, 0, 0, 0), levels[::-1], w_raw, dth_raw)  # scan order
    state = (0, 0, 0, 0)
    out = np.zeros(n)
    for c, (lane, contribution) in zip(range(n - 1, -1, -1), got):
        state = q.step(state, q.preprocess(levels[c], w_raw), w_raw)
        assert lane == state
        assert contribution == q.contribution(state, dth_raw)
        out[c] = contribution / fx.SCALE
    assert q.saturations == 0
    gap = np.abs(out - ref).max() / np.abs(ref).max()
    assert gap < 0.05


# ---------------------------------------------------------------- full map


def test_map_fxp_all_free_is_zero():
    mi = compute_mi_map_fxp(OccupancyGrid(np.zeros((8, 8), dtype=np.uint8)))
    np.testing.assert_array_equal(mi.values, 0.0)
    np.testing.assert_array_equal(mi.raw, 0)


def test_map_fxp_deterministic(make_grid):
    grid = make_grid(15, 11)
    a = compute_mi_map_fxp(grid, SensorConfig(8))
    b = compute_mi_map_fxp(grid, SensorConfig(8))
    np.testing.assert_array_equal(a.raw, b.raw)
    np.testing.assert_array_equal(a.values, b.values)


def oracle_map_fxp(grid: OccupancyGrid, sensor: SensorConfig) -> tuple[np.ndarray, int]:
    """The fxp map by the scalar oracle chain, and its saturation count."""
    q = chain()
    sat0 = q.saturations
    words = oracles.q_mi_map(grid.levels, sensor.ray_count, grid.resolution, q)
    return words, q.saturations - sat0


@pytest.mark.parametrize("shape,rays", [((13, 13), 12), ((9, 17), 12),
                                        ((1, 11), 7), ((11, 1), 7)])
def test_map_fxp_matches_scalar_beam_chain(make_grid, shape, rays):
    # the lane-parallel sweep against the scalar chain along every
    # cell's oracle beam at every heading
    grid = make_grid(*shape)
    sensor = SensorConfig(rays)
    want, want_sats = oracle_map_fxp(grid, sensor)
    got = compute_mi_map_fxp(grid, sensor)
    assert got.saturations == want_sats == 0
    np.testing.assert_array_equal(got.raw, want)


RESOLUTIONS = [0.1, 1.0, 10.0, 1e3, 1e9]


@st.composite
def small_grids(draw):
    """Random 1..9 x 1..9 level grids at 0.1 m to 1e9 m a cell, or of 1 to
    3 distinct levels at 10 m or 1e3 m.  From 10 m on, calls run inside
    the engine's domain or outside it, where they may saturate; long runs
    of few levels carry the states towards the range's edge."""
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if draw(st.booleans()):
        palette = draw(st.lists(st.integers(0, 100), min_size=1, max_size=3, unique=True))
        cell_levels, resolutions = st.sampled_from(palette), [10.0, 1e3]
    else:
        cell_levels, resolutions = st.integers(0, 100), RESOLUTIONS
    levels = draw(st.lists(cell_levels, min_size=height * width,
                           max_size=height * width))
    resolution = draw(st.sampled_from(resolutions))
    return OccupancyGrid(np.array(levels, np.uint8).reshape(height, width), resolution)


@settings(max_examples=40)
@given(small_grids(), st.integers(1, 13))
# at 1e3 m these clip in the contribution, from states the step's guard
# must keep on the clipping ops
@example(OccupancyGrid(np.array([[84, 59]], np.uint8), 1e3), 1)
@example(OccupancyGrid(np.array([[25, 41, 46], [67, 16, 61]], np.uint8), 1e3), 5)
def test_map_fxp_matches_scalar_chain_with_saturations(grid, rays):
    # any shape and ray count, and at 1e3 m and 1e9 m saturating grids:
    # the words and the saturation count both equal the scalar chain's
    sensor = SensorConfig(rays)
    want, want_sats = oracle_map_fxp(grid, sensor)
    got = compute_mi_map_fxp(grid, sensor)
    np.testing.assert_array_equal(got.raw, want)
    assert got.saturations == want_sats


@settings(max_examples=30)
@given(palette=st.lists(st.integers(1, 100), max_size=3, unique=True),
       resolution=st.sampled_from([100.0, 200.0, 300.0]), rays=st.integers(1, 13),
       data=st.data())
def test_map_fxp_inside_its_domain_matches_the_chain_without_clips(palette, resolution,
                                                                    rays, data):
    # grids of free cells and the palette's levels on shapes up to the
    # edge of the domain of their table, which at these resolutions often
    # lies within 9 cells: every word is the scalar chain's, and nothing
    # saturates.  A grid that holds only some of the levels has a table
    # of smaller maxima, so its domain is no smaller
    palette = [0] + palette
    sensor = SensorConfig(rays)
    w = fx.encode([cell_width(a, resolution) for a in sensor.angles])
    caps = cap_words(FcmiParams())
    sat0 = fx.saturation_count()
    rows = _preprocess_rows(w, palette, caps)
    assume(fx.saturation_count() == sat0)
    dth = fx.encode(sensor.delta_theta)
    edge = 0
    while edge < 9 and _domain_bound(rows, w, caps[0], dth, edge + 1) <= fx.RAW_MAX:
        edge += 1
    assume(edge > 0)
    long, short = data.draw(st.integers(1, edge)), data.draw(st.integers(1, edge))
    shape = data.draw(st.sampled_from([(long, min(short, long)), (min(short, long), long)]))
    levels = data.draw(st.lists(st.sampled_from(palette), min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    grid = OccupancyGrid(np.array(levels, np.uint8).reshape(shape), resolution)
    want, want_sats = oracle_map_fxp(grid, sensor)
    got = compute_mi_map_fxp(grid, sensor)
    np.testing.assert_array_equal(got.raw, want)
    assert got.saturations == want_sats == 0


def oracle_fold(acc, rows):
    """Each cell's heading rows added to its accumulator word one at a
    time by the oracle's saturating add, and the clip count."""
    q = oracles.QChain([])
    out = []
    for c, word in enumerate(acc):
        word = int(word)
        for part in rows:
            word = q.add(word, int(part[c]))
        out.append(word)
    return out, q.saturations


def check_fold(acc, rows, monkeypatch) -> int:
    """``_fold`` against the oracle; returns how many adds it clipped
    one at a time (0 for a one-pass fold)."""
    acc = np.array(acc, dtype=np.float64)
    rows = np.array(rows, dtype=np.int32)
    want, want_sats = oracle_fold(acc, rows)
    clip, adds = fx.arr_clip, []

    def counted_clip(q):
        adds.append(q)
        return clip(q)

    monkeypatch.setattr(fx, "arr_clip", counted_clip)
    sat0 = fx.saturation_count()
    _fold(acc, rows)
    assert fx.saturation_count() - sat0 == want_sats
    np.testing.assert_array_equal(acc, want)
    return len(adds)


MAX, MIN = fx.RAW_MAX, fx.RAW_MIN


@pytest.mark.parametrize("acc,rows,loop", [
    # within the bound: one pass
    ([0, 5, -7], [[1, -2, 3], [4, 5, -6]], False),
    ([MAX - 8, MIN + 8], [[4, -4], [4, -4]], False),
    # partial sums clip while the total does not
    ([0], [[MAX], [MAX], [MIN]], True),
    ([0], [[MIN], [MIN], [MAX]], True),
    # the rows alone are within the bound; the accumulator takes the
    # partial sums past it
    ([MAX - 1], [[1], [1], [-5]], True),
    ([MIN + 1], [[-1], [-1], [5]], True),
    # an accumulator outside the range whose first partial sum clips
    # though the rows only bring it back: the bound's partial sums start
    # at zero rows, not at n of them
    ([MAX + 2], [[-1], [-1]], True),
    ([MIN - 2], [[1], [1]], True),
], ids=["within", "within at the ends", "partial sums clip up", "partial sums clip down",
        "acc clips up", "acc clips down", "acc above", "acc below"])
def test_fold_is_one_pass_only_when_no_partial_sum_can_clip(monkeypatch, acc, rows,
                                                            loop):
    assert check_fold(acc, rows, monkeypatch) == (len(rows) if loop else 0)


FOLD_WORDS = st.one_of(st.integers(-50, 50), st.integers(MIN, MAX),
                       st.sampled_from([MIN, MAX]))


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(lambda cells: st.tuples(
    st.lists(FOLD_WORDS, min_size=cells, max_size=cells),
    st.lists(st.lists(FOLD_WORDS, min_size=cells, max_size=cells), min_size=1,
             max_size=5))))
def test_fold_matches_heading_ordered_saturating_adds(acc_rows):
    acc, rows = acc_rows
    with pytest.MonkeyPatch.context() as patch:
        check_fold(acc, rows, patch)


# a step replaces the grid's shape, ray count, resolution or cap, or keeps all
SETTING_CHANGES = st.one_of(
    st.none(),
    st.tuples(st.just("shape"), st.tuples(st.integers(1, 9), st.integers(1, 9))),
    st.tuples(st.just("rays"), st.integers(1, 13)),
    st.tuples(st.just("resolution"), st.sampled_from(RESOLUTIONS)),
    st.tuples(st.just("lambda_cap"), st.sampled_from([1e7, 1e3])),
)


@settings(max_examples=40)
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       rays=st.integers(1, 13), resolution=st.sampled_from(RESOLUTIONS),
       seed=st.integers(0, 2 ** 32 - 1),
       steps=st.lists(st.tuples(st.sampled_from(["none", "cell", "fifth", "all"]),
                                SETTING_CHANGES), min_size=1, max_size=5))
def test_map_fxp_with_memo_matches_cold_calls(shape, rays, resolution, seed, steps):
    # every call on a shared memo, after any edit of the levels and any
    # change of settings, gives the words and saturations of a cold call;
    # the cold calls run blocks of two headings, the memo one block of all
    rng = np.random.default_rng(seed)
    settings_now = {"rays": rays, "resolution": resolution, "lambda_cap": 1e7}
    levels = rng.integers(0, 101, shape, dtype=np.uint8)
    memo = SweepMemo()
    for edit, change in [("none", None)] + steps:
        if change is not None and change[0] == "shape":
            levels = rng.integers(0, 101, change[1], dtype=np.uint8)
        elif change is not None:
            settings_now[change[0]] = change[1]
        levels = levels.copy()
        flat = levels.reshape(-1)
        if edit == "cell":
            i = rng.integers(flat.size)
            flat[i] = (flat[i] + rng.integers(1, 101)) % 101
        elif edit == "fifth":
            at = rng.random(flat.size) < 0.2
            flat[at] = rng.integers(0, 101, int(at.sum()))
        elif edit == "all":
            flat[:] = (flat + rng.integers(1, 101, flat.size)) % 101
        grid = OccupancyGrid(levels, settings_now["resolution"])
        sensor = SensorConfig(settings_now["rays"])
        params = FcmiParams(settings_now["lambda_cap"])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid_module, "LANE_BLOCK_CELLS", 2 * flat.size)
            warm = compute_mi_map_fxp(grid, sensor, params, memo=memo)
            cold = compute_mi_map_fxp(grid, sensor, params)
        assert len(memo.block.cells) == sensor.ray_count * flat.size
        np.testing.assert_array_equal(warm.raw, cold.raw)
        assert warm.saturations == cold.saturations


def test_map_fxp_no_saturation_at_map_scale(make_grid):
    sat0 = fx.saturation_count()
    mi = compute_mi_map_fxp(make_grid(21, 21), SensorConfig(16))
    assert fx.saturation_count() == sat0
    assert mi.saturations == 0


def test_map_fxp_reports_its_own_saturations(make_grid):
    # at 1e9 m per cell the widths clip; each map counts only its own call
    grid = make_grid(9, 13, resolution=1e9)
    sat0 = fx.saturation_count()
    first = compute_mi_map_fxp(grid, SensorConfig(10))
    second = compute_mi_map_fxp(grid, SensorConfig(10))
    assert first.saturations > 0
    assert second.saturations == first.saturations
    assert fx.saturation_count() - sat0 == 2 * first.saturations
    assert compute_mi_map(grid, SensorConfig(10)).saturations == 0


def test_map_fxp_counts_only_levels_the_grid_holds():
    # an all-free grid reads only the level-0 rows, which clip at no width;
    # at 1e9 m the four cell-width encodes are all that saturate
    free = np.zeros((2, 2), dtype=np.uint8)
    for resolution, want in ((1e5, 0), (1e9, 4)):
        mi = compute_mi_map_fxp(OccupancyGrid(free, resolution), SensorConfig(4))
        assert mi.saturations == want
        np.testing.assert_array_equal(mi.raw, 0)


def test_map_fxp_values_decode_raw(make_grid):
    mi = compute_mi_map_fxp(make_grid(9, 9), SensorConfig(8))
    np.testing.assert_array_equal(mi.values, mi.raw / fx.SCALE)


# ---------------------------------------------------------------- table dump


def test_dump_tables_is_stable():
    text = dump_tables()
    golden = (GOLDEN / "tables_q20_12.txt").read_text()
    assert text == golden


def test_dump_tables_reruns_identical():
    assert dump_tables() == dump_tables()
