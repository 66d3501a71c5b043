"""Q20.12 primitives: rounding, saturation, the array ops, and the exact
float64 lane form of the sweep step."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import mimap.fixedpoint as fx
import mimap.datapath as datapath
from mimap.datapath import (_domain_bound, _preprocess_rows, _sweep_step, build_occ_lut,
                            cap_words, compute_mi_map_fxp)
from mimap.grid import FcmiParams, OccupancyGrid, SensorConfig, cell_width

RAWS = st.integers(fx.RAW_MIN, fx.RAW_MAX)
HALF_ULP = fx.SCALE // 2  # tie point of the dropped fraction bits


def rne_div_scale(p: int) -> int:
    """Independent ties-even model of dropping 12 fraction bits (decimal)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        q = decimal.Decimal(p) / decimal.Decimal(fx.SCALE)
        return int(q.to_integral_value(rounding=decimal.ROUND_HALF_EVEN))


def clamp(q: int) -> int:
    return max(fx.RAW_MIN, min(fx.RAW_MAX, q))


# ---------------------------------------------------------------- encoding


def test_encode_basics():
    assert fx.encode(1.0) == 4096
    assert fx.encode(0.25) == 1024
    assert fx.encode(-1.0) == -4096
    assert fx.encode(2.0 ** -13) == 0  # half-ulp tie rounds to even
    assert fx.encode(3.0 * 2.0 ** -13) == 2  # tie again, even neighbor above


def test_encode_saturates_out_of_range():
    sat0 = fx.saturation_count()
    assert fx.encode(1e6) == fx.RAW_MAX
    assert fx.encode(-1e6) == fx.RAW_MIN
    assert fx.saturation_count() - sat0 == 2
    sat0 = fx.saturation_count()
    assert fx.encode(1e5) == 409600000  # in range: no event
    assert fx.saturation_count() == sat0
    # an array encodes elementwise, each clipped element counted once
    words = fx.encode([1e6, 0.25, -1e6, 2.0 ** -13])
    assert words.dtype == np.float64
    np.testing.assert_array_equal(words, [fx.RAW_MAX, 1024, fx.RAW_MIN, 0])
    assert fx.saturation_count() - sat0 == 2


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan"), 1e306])
def test_encode_rejects_values_without_a_word(x):
    # the scaled value is not finite, so there is nothing to saturate to
    with pytest.raises(ValueError, match="cannot encode"):
        fx.encode(x)
    with pytest.raises(ValueError, match="cannot encode"):
        fx.encode([0.0, x])


def test_empty_arrays_come_back_empty_with_no_count():
    empty = np.array([])
    sat0 = fx.saturation_count()
    for got in (fx.encode([]), fx.arr_clip(np.array([])), fx.arr_add(empty, empty),
                fx.arr_sub(empty, empty), fx.arr_mul(empty, empty)):
        assert got.shape == (0,) and got.dtype == np.float64
    assert fx.encode(np.zeros((0, 3))).shape == (0, 3)
    assert fx.saturation_count() == sat0


def test_decode_range_ends():
    assert fx.RAW_MAX / fx.SCALE == 2.0 ** 19 - 2.0 ** -12
    assert fx.RAW_MIN / fx.SCALE == -(2.0 ** 19)
    assert 4096 / fx.SCALE == 1.0


@given(st.floats(-(2.0 ** 19) + 1, 2.0 ** 19 - 1))
def test_encode_round_trip_within_half_ulp(x):
    raw = fx.encode(x)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        want = int((decimal.Decimal(x) * fx.SCALE)
                   .to_integral_value(rounding=decimal.ROUND_HALF_EVEN))
    assert raw == clamp(want)
    assert abs(raw / fx.SCALE - x) <= 2.0 ** -13


# ---------------------------------------------------------------- array ops


def words(*raws) -> np.ndarray:
    return np.array(raws, dtype=np.int64)


def test_mul_examples():
    one = fx.encode(1.0)
    half = fx.encode(0.5)
    third = fx.encode(1.0 / 3.0)
    three = fx.encode(3.0)
    assert fx.arr_mul(words(one, half), words(one, half)).tolist() == [4096, 1024]
    assert third == 1365
    got = int(fx.arr_mul(words(third), words(three))[0])
    assert got == 4095  # 1365 * 12288 >> 12, exact
    assert got / fx.SCALE == 0.999755859375


def test_mul_tie_cases_round_to_even():
    # 0.5 ulp -> even 0 and 1.5 ulp -> even 2, from both sides of zero
    got = fx.arr_mul(words(1, 3, -1, -3), words(HALF_ULP))
    assert got.tolist() == [0, 2, 0, -2]


def test_add_sub_neg_saturate():
    sat0 = fx.saturation_count()
    assert fx.arr_add(words(fx.RAW_MAX), words(1)).tolist() == [fx.RAW_MAX]
    assert fx.arr_sub(words(fx.RAW_MIN), words(1)).tolist() == [fx.RAW_MIN]
    # negation: -(-2^31) has no int32 home
    assert fx.arr_sub(0, words(fx.RAW_MIN)).tolist() == [fx.RAW_MAX]
    assert fx.saturation_count() - sat0 == 3


@st.composite
def near_edge_pairs(draw):
    """A pair of words whose product is near the range edge, where the
    rounded word passes RAW_MAX or RAW_MIN (|a*b| near 2^43), or near
    2^53, past which a float product is no longer exact.  Uniform pairs
    almost never land there."""
    target = draw(st.sampled_from([(2 * fx.RAW_MAX + 1) * HALF_ULP,
                                   (2 * fx.RAW_MIN - 1) * -HALF_ULP, 2 ** 53]))
    a = draw(st.integers(-(-target // 2 ** 31), 2 ** 31))
    b = target // a + draw(st.integers(-2, 2))
    sa, sb = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    return clamp(sa * a), clamp(sb * min(b, 2 ** 31))


PAIRS = st.lists(st.one_of(st.tuples(RAWS, RAWS), near_edge_pairs()),
                 min_size=1, max_size=64)


@given(PAIRS)
def test_add_matches_exact_integer_model(pairs):
    a, b = (words(*side) for side in zip(*pairs))
    for op, exact in ((fx.arr_add, lambda x, y: x + y), (fx.arr_sub, lambda x, y: x - y)):
        want = [exact(x, y) for x, y in pairs]
        sat0 = fx.saturation_count()
        assert op(a, b).tolist() == [clamp(q) for q in want]
        assert fx.saturation_count() - sat0 == sum(clamp(q) != q for q in want)


@given(PAIRS)
# 2^53 + 6143, where the bare float product a*b rounds to the wrong side
# of a tie; and the extreme products, which saturate
@example([(637322051, 14132885)])
@example([(fx.RAW_MIN, fx.RAW_MIN)])
@example([(fx.RAW_MAX, fx.RAW_MIN)])
def test_mul_matches_exact_decimal_model(pairs):
    a, b = (words(*side) for side in zip(*pairs))
    want = [rne_div_scale(x * y) for x, y in pairs]
    sat0 = fx.saturation_count()
    assert fx.arr_mul(a, b).tolist() == [clamp(q) for q in want]
    assert fx.saturation_count() - sat0 == sum(clamp(q) != q for q in want)


@given(PAIRS)
def test_array_ops_match_scalar_ops(pairs):
    # the oracle's scalar ops, the bit-exact reference of the map tests,
    # give the array ops' words and clip counts
    a, b = (words(*side) for side in zip(*pairs))
    q = oracles.QChain([])
    for op, scalar in ((fx.arr_add, q.add), (fx.arr_sub, q.sub), (fx.arr_mul, q.mul)):
        sat0, scalar_sat0 = fx.saturation_count(), q.saturations
        assert op(a, b).tolist() == [scalar(x, y) for x, y in pairs]
        assert fx.saturation_count() - sat0 == q.saturations - scalar_sat0


def test_array_mul_ties_and_extremes_match_scalar():
    # exact ties round to the even word from both sides of zero (0.5 and
    # 1.5 ulp), and of the extremes only RAW_MAX^2 saturates
    pairs = [(1, HALF_ULP), (-1, HALF_ULP), (3, HALF_ULP),
             (-3, HALF_ULP), (fx.RAW_MIN, HALF_ULP), (fx.RAW_MAX, fx.RAW_MAX)]
    want = [0, 0, 2, -2, fx.RAW_MIN // 2, fx.RAW_MAX]
    q = oracles.QChain([])
    assert [q.mul(a, b) for a, b in pairs] == want
    assert q.saturations == 1
    a, b = (words(*side) for side in zip(*pairs))
    sat0 = fx.saturation_count()
    np.testing.assert_array_equal(fx.arr_mul(a, b), want)
    assert fx.saturation_count() - sat0 == 1


def test_array_saturation_is_counted():
    sat0 = fx.saturation_count()
    out = fx.arr_add(np.array([fx.RAW_MAX, 0, fx.RAW_MIN], dtype=np.int64),
                     np.array([10, 10, -10], dtype=np.int64))
    np.testing.assert_array_equal(out, [fx.RAW_MAX, 10, fx.RAW_MIN])
    assert fx.saturation_count() - sat0 == 2


# ---------------------------------------------------------------- float64 lanes
#
# The datapath holds words, and 2^-12-scaled multipliers, exactly as
# float64.  A product of words a*b below 2^53 is then exact as the float
# a * (b * 2^-12), and np.rint rounds it half to even; past 2^53 the word
# saturates whatever the float rounding does.

ULP = 2.0 ** -fx.FRAC_BITS


def float_mul(a, b) -> np.ndarray:
    return np.rint(np.asarray(a, dtype=np.float64) * (np.asarray(b) * ULP))


def test_float_mul_matches_on_ties_and_range_ends():
    h = HALF_ULP
    pairs = [(1, h), (-1, h), (3, h), (-3, h), (h, 1), (-h, 3),
             (fx.RAW_MAX, h), (fx.RAW_MIN, h), (fx.RAW_MIN + 1, h), (fx.RAW_MAX, -h),
             (fx.RAW_MAX, 4095), (fx.RAW_MIN, 4095), (fx.RAW_MAX, -fx.ONE_RAW),
             (fx.RAW_MIN, 1), (fx.RAW_MAX, 1), (fx.RAW_MIN, -1)]
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    assert np.all(np.abs(a * b) < 2 ** 53)
    want = [rne_div_scale(x * y) for x, y in pairs]
    assert want == [clamp(q) for q in want]
    np.testing.assert_array_equal(float_mul(a, b), want)


@given(st.lists(st.tuples(RAWS, st.integers(-(2 ** 22 - 1), 2 ** 22 - 1)),
                min_size=1, max_size=64))
def test_float_mul_is_exact_below_two_to_53(pairs):
    # |a| <= 2^31 and |b| < 2^22: the product is below 2^53, and the float
    # form gives the ties-even word, in range or not, in either order
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    want = [rne_div_scale(x * y) for x, y in pairs]
    assert float_mul(a, b).tolist() == want
    assert float_mul(b, a).tolist() == want


def test_float_mul_can_be_wrong_just_over_two_to_53():
    # 637322051 * 14132885 = 2^53 + 6143: the float product drops its last
    # bit and lands on a tie that rounds the other way
    a, b = 637322051, 14132885
    assert a * b == 2 ** 53 + 6143
    assert float_mul(a, b) == rne_div_scale(a * b) + 1


def oracle_step(state, rows, w, k1, dth):
    """The sweep step by the oracle's scalar chain, lane by lane, on
    unscaled words: the new state, the contributions and the chain's
    clip count."""
    q = oracles.QChain([])
    q.k1 = k1
    ints = lambda col: tuple(int(v) for v in col)
    new = [q.step(ints(s), ints(row), int(wj))
           for s, row, wj in zip(state.T, rows.T, w)]
    out = [q.contribution(s, dth) for s in new]
    return np.array(new).T, out, q.saturations


def level_rows(resolution):
    """Preprocess rows of every level at 8 headings and that resolution."""
    w = np.array([fx.encode(cell_width(a, resolution))
                  for a in SensorConfig(8).angles], dtype=np.float64)
    return _preprocess_rows(w, list(range(101)), cap_words(FcmiParams())), w


class UnclippedChain(oracles.QChain):
    """The oracle's scalar chain with no clip, keeping the largest |word|
    its ops make in ``top``."""

    def __init__(self, k1):
        self.top = 0
        super().__init__([])
        self.k1, self.top = k1, 0

    def clamp(self, q):
        self.top = max(self.top, abs(q))
        return q


@settings(max_examples=60)
@given(levels=st.lists(st.integers(0, 100), min_size=1, max_size=6, unique=True),
       resolution=st.sampled_from([0.1, 1.0, 10.0, 30.0, 100.0, 1e3]),
       rays=st.integers(1, 13),
       runs=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(1, 30)),
                     min_size=1, max_size=5))
@example(levels=[99], resolution=100.0, rays=8, runs=[(7, 30)])
@example(levels=[0, 100], resolution=1e3, rays=1, runs=[(1, 1), (0, 20)])
def test_domain_bound_holds_every_word_of_the_chain(levels, resolution, rays, runs):
    # a lane from a zero state reads columns of the table in runs, one
    # column repeated in each; every word the chain makes by step t, run
    # with no clip, is within the bound of t steps, up to the first step
    # whose bound leaves the range
    sensor = SensorConfig(rays)
    w = fx.encode([cell_width(a, resolution) for a in sensor.angles])
    caps = cap_words(FcmiParams())
    rows = _preprocess_rows(w, levels, caps)
    dth = fx.encode(sensor.delta_theta)
    chain = UnclippedChain(int(caps[0]))
    cols = [k * 101 + level for k in range(rays) for level in levels]
    state, t = (0, 0, 0, 0), 0
    for pick, run in runs:
        col = cols[pick % len(cols)]
        row = tuple(int(v) for v in rows[:, col])
        for _ in range(run):
            state = chain.step(state, row, int(w[col // 101]))
            chain.contribution(state, dth)
            t += 1
            bound = _domain_bound(rows, w, caps[0], dth, t)
            assert chain.top <= bound
            if bound > fx.RAW_MAX:
                return


def growing_rows(c):
    """E = 1, x = 0 and C1 = c, the other constants 0, in every column: at
    w = 0 and k1 = 0 a step adds exactly c to a1 and moves no other state
    word."""
    rows = np.zeros((6, 101))
    rows[0], rows[2] = fx.ONE_RAW, c
    return rows


# (C1, rays): a1 grows by 2^24 a step, and at 1 ray its contribution, a1
# times dtheta, leaves the range at step 21; or, at 8 rays, the exact
# contribution of step 4 lies half an ulp to one ulp above RAW_MAX, so
# only its rounding takes it out
GROWING = {"growing": (1 << 24, 1), "rounding edge": (683563337, 8)}


def domain_edge(rows, w, k1, dth) -> int:
    """The most steps whose bound stays within the range."""
    n = 0
    while _domain_bound(rows, w, k1, dth, n + 1) <= fx.RAW_MAX:
        n += 1
    return n


def step_lanes(rows, w, k1, dth, steps, cols) -> tuple[int, list[int]]:
    """``steps`` steps of lanes from a zero state, lane j reading column
    ``cols[j]`` every step, by the step ``_sweep_step`` makes for that
    many steps; each step's words and clip count are the oracle chain's.
    Returns the chain's clip count and the ``fx.arr_clip`` calls of each
    step."""
    calls = []
    clip = fx.arr_clip

    def counted(q):
        calls[-1] += 1
        return clip(q)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fx, "arr_clip", counted)
        table, step = _sweep_step(rows, w, k1, dth, steps)
        lanes = np.zeros((4, len(cols)))
        state, sats = lanes.astype(np.int64), 0
        for _ in range(steps):
            calls.append(0)
            state, want, want_sats = oracle_step(state, rows[:, cols], w.take(cols // 101),
                                                 k1, dth)
            sat0 = fx.saturation_count()
            got = step(lanes, table.take(cols, axis=1))
            assert fx.saturation_count() - sat0 == want_sats
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(lanes, state)
            sats += want_sats
    return sats, calls


@pytest.mark.parametrize("case", ["1 m", "10 m", "growing", "rounding edge"])
def test_step_just_inside_and_just_outside_its_guard(monkeypatch, case):
    # the step's guard is its domain check: built for the most steps the
    # bound keeps in the range it never clips, and built for one step
    # more it clips on every step; both give the oracle chain's words and
    # clip count.  On real tables no word leaves the range either way; on
    # tables that grow a1 by an exact amount a step, the chain's words
    # leave it at the first step past the edge
    if case in GROWING:
        c, rays = GROWING[case]
        rows, w, k1 = growing_rows(c), np.zeros(1), 0
    else:
        rows, w = level_rows(float(case.split()[0]))
        k1, rays = fx.encode(1.0 - math.log(1e7)), 8
    dth = fx.encode(SensorConfig(rays).delta_theta)
    edge = domain_edge(rows, w, k1, dth)
    cols = np.arange(0, rows.shape[1], 37)
    sats, calls = step_lanes(rows, w, k1, dth, edge, cols)
    assert sats == 0 and not any(calls)
    sats, calls = step_lanes(rows, w, k1, dth, edge + 1, cols)
    assert all(calls)
    if case not in GROWING:
        assert sats == 0
        return
    assert sats == len(cols)
    if case == "rounding edge":
        exact = c * (edge + 1) * dth - fx.SCALE * fx.RAW_MAX
        assert HALF_ULP <= exact < fx.SCALE
    # the same edge through map calls, which take max(H, W) for their
    # steps: a 1 x n grid of one level, whose table is the growing rows at
    # every heading, at a resolution that encodes to w = 0 and a cap that
    # makes k1 = 0
    monkeypatch.setattr(datapath, "_preprocess_rows",
                        lambda w_raws, levels, caps: np.tile(rows, len(w_raws)))
    chain = oracles.QChain(build_occ_lut(), math.e)
    chain.preprocess = lambda level, w_raw: tuple(int(v) for v in rows[:, level])
    for n in (edge, edge + 1):
        grid = OccupancyGrid(np.full((1, n), 50, dtype=np.uint8), 1e-9)
        sat0 = chain.saturations
        want = oracles.q_mi_map(grid.levels, rays, grid.resolution, chain)
        got = compute_mi_map_fxp(grid, SensorConfig(rays), FcmiParams(math.e))
        np.testing.assert_array_equal(got.raw, want)
        assert got.saturations == chain.saturations - sat0
