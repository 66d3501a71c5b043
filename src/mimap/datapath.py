"""Fixed-point datapath model: occupancy LUTs, the exponential, and the
Q20.12 realization of the expectation recursion.

The dataflow mirrors the hardware split:

  preprocess  - per cell: LUT fetch (lam, -log lam, 1/lam), x = lam*w, the
                exponential E = e^-x, the three gamma values, and the four
                additive constants C1..C4
  feedback    - the recursive update of (a1, b1, a0, b0)
  postprocess - MI contribution (a1 - (1 - log cap)*b1) * dtheta and the
                read-modify-write into the MI accumulator

Preprocess outputs depend only on (occupancy level, heading), so the map
engine computes them for each heading and each level the grid holds in
one pass of the saturating array ops over (heading, level), into one
table keyed by ``heading*101 + level``; only level 100, whose lam is
capped, takes a literal row.  Feedback and postprocess are the step of
``grid.sweep``, which runs every scan line of every heading as a lane
and folds the contributions into the accumulator in heading order.

The exponential (``exp_neg``) computes e^-x as 2^-(n+f): y = x*log2(e)
to 20 fraction bits splits into its integer part n and fraction f, 2^-f
interpolates linearly between two of 33 knots 2^(-k/32), and a shift
right by n + 8 makes the word.  It is within 1 ulp of e^-x on every
word, which matters near x = 0: there 1/lam, up to 100, multiplies each
ulp of g2 = 1 - E(1+x).  Take a preprocess stage to be one multiply,
table read or shift, with the adds next to it.  From the LUT read to
C1, preprocess then takes 9 stages (LUT; lam*w; x*log2(e); the two knot
reads and their difference; the interpolating multiply; the subtract
from the knot and the shift; E*(1+x); g2*(-log lam); 1/lam*(...)),
within the 10 that ``archsim.PIPELINE_STAGES`` (19) gives it.
Preprocess reads no recursion state, so it does not touch the 8-stage
feedback loop or the spacing that loop sets between a ray's cells.

The occupancy LUT (``OCC_LUT``) and the exp knots (``EXP_KNOTS``) are
built once at import, and the cap words once per map.  Every word is an
integer-valued float64, LUT and cap words included; only the knots stay
int64, for the shifts of the exponential.  Every op is an exact float
op plus the range clip of ``fixedpoint`` (see its docstring for why
that is exact).  The step
keeps its multipliers E, x, the cell width, k1 and dtheta scaled by
2^-12, so its multiply is ``fixedpoint.round_product``, and runs one op
chain on the lane state in place.  ``_step_bound`` bounds, from a bound
m on the state words and the table's maxima, the new state words and
every word of one step.  A reading of max|state| over the lanes is
iterated through it for as many steps as no word can leave the range,
at most ``SPAN_MAX`` (``_step_span``).  Those steps skip the clip and
its count, and the reading too, so their chain is plain float
arithmetic; the step after them, or a step on other lanes, reads again,
and a span of zero steps runs the step with the clip.  No one bound
covers a whole lane block: at 0.1 m the bound grows by a factor of 1.1
to 1.9 a step on the bundled maps and the planner's maps, while the
states it bounds stay put, so a reading covers 16 to 42 steps on
average there.  The fold adds a block's heading rows in one pass when
no partial sum can leave the range, and with the saturating add heading
by heading otherwise (``_fold``).  So every element passes through the
ops of one scalar Q20.12 chain in its order, with its rounding and
saturation.  That chain, written from the defining math with its own
ops and saturation count, is the bit-exact reference in the test
suite's oracles: the map and its saturation count are those of chaining
it cell by cell and heading by heading, with preprocess once per
(heading, level) the grid holds.
"""

import math

import numpy as np

from . import fixedpoint as fx
from .grid import (FcmiParams, MIMap, OccupancyGrid, SensorConfig, SweepMemo,
                   cell_width, sweep)

EXP_FRAC_BITS = 20   # fraction bits of y = x*log2(e) and of the knots
EXP_KNOT_BITS = 5    # 2^5 = 32 knot intervals of 2^-f over 0 <= f < 1
EXP_MAX_N = 40       # past this integer part of y, e^-x is 0
LOG2E_RAW = round(math.log2(math.e) * (1 << EXP_FRAC_BITS))  # 1512775


def cap_words(params: FcmiParams) -> np.ndarray:
    """The cap-derived words (k1, occ_a1, occ_b1): k1 = 1 - log(cap), the
    conditional-entropy weight, and the o = 1 limits (2 - log(cap))/cap
    and 1/cap of C1 and C2."""
    ln_cap = params.log_lambda_cap
    return fx.encode([1.0 - ln_cap, (2.0 - ln_cap) / params.lambda_cap,
                      1.0 / params.lambda_cap])


def build_occ_lut() -> np.ndarray:
    """(101, 3) float64 words (lam, -log lam, 1/lam) of each occupancy
    level.  Rows 0 and 100 hold zero words: at level 0, lam = 0 is exact
    and the preprocess chain runs on it, and level 100 takes a literal
    row."""
    lams = [-math.log1p(-level / 100.0) for level in range(1, 100)]
    reals = [(lam, -math.log(lam), 1.0 / lam) for lam in lams]
    return fx.encode([(0.0, 0.0, 0.0)] + reals + [(0.0, 0.0, 0.0)])


def build_exp_knots() -> np.ndarray:
    """The 33 knots of 2^-f on 0 <= f <= 1, round(2^(-k/32) * 2^20) for
    k = 0..32, as int64 words with 20 fraction bits."""
    return np.array([round(2.0 ** (-k / (1 << EXP_KNOT_BITS)) * (1 << EXP_FRAC_BITS))
                     for k in range((1 << EXP_KNOT_BITS) + 1)], dtype=np.int64)


OCC_LUT = build_occ_lut()
EXP_KNOTS = build_exp_knots()


def exp_neg(x_raw: np.ndarray) -> np.ndarray:
    """Datapath exponential e^-x of an array of words x >= 0, as 2^-(n+f).

    y = x*log2(e) is taken to 20 fraction bits and split into its integer
    part n and fraction f.  The top 5 bits of f pick the knots around it,
    and 2^-f interpolates linearly between them over the other 15 bits.
    That 20-bit word shifts right by n + 8 to 12 fraction bits.  Each
    shift rounds half up, and n > 40 gives 0.  Every result is within
    1 ulp of e^-x, and at most ``ONE_RAW``; the result does not grow with
    x.  The shifts need integers, so the words work in int64 here and
    come back as float64 words.
    """
    interp_bits = EXP_FRAC_BITS - EXP_KNOT_BITS
    x = x_raw.astype(np.int64)
    y = (x * LOG2E_RAW + (1 << (fx.FRAC_BITS - 1))) >> fx.FRAC_BITS
    n, f = y >> EXP_FRAC_BITS, y & ((1 << EXP_FRAC_BITS) - 1)
    k, r = f >> interp_bits, f & ((1 << interp_bits) - 1)
    left, right = EXP_KNOTS[k], EXP_KNOTS[k + 1]
    two_f = left - (((left - right) * r + (1 << (interp_bits - 1))) >> interp_bits)
    shift = np.minimum(n, EXP_MAX_N) + (EXP_FRAC_BITS - fx.FRAC_BITS)
    e = (two_f + (1 << (shift - 1))) >> shift
    return np.where(n > EXP_MAX_N, 0, e).astype(np.float64)


def _preprocess_rows(w_raws: np.ndarray, levels: list[int],
                     caps: np.ndarray) -> np.ndarray:
    """(6, headings*101) float64 matrix of preprocess words (E, x, C1, C2,
    C3, C4), column ``heading*101 + level``, for the headings' cell-width
    words ``w_raws`` and the cap words ``caps`` of ``cap_words``.

    Only the columns of ``levels`` are filled; the others stay zero.
    Levels 0 to 99 of every heading run the preprocess op chain as one
    array pass of the saturating ops; level 0's zero LUT words make its
    row (1, 0, 0, 0, 0, 0), which turns the update into the pass-through
    (a1 + w*a0, b1 + w*b0, a0, b0), and clip nothing.  Level 100 takes a
    literal row and passes through no op: its lam is capped, and x would
    leave the word range.
    """
    rows = np.zeros((6, len(w_raws), 101))
    if 100 in levels:
        # E=0 erases the previous state; the constants carry the o=1 limits
        # (2 - log cap)/cap, 1/cap, 1 - log cap and 1
        k1, occ_a1, occ_b1 = caps
        rows[:, :, 100] = np.array([0, 0, occ_a1, occ_b1, k1, fx.ONE_RAW])[:, None]
    chained = [level for level in levels if level < 100]
    if not chained:
        return rows.reshape(6, -1)
    lam, neg_log_lam, inv_lam = OCC_LUT[chained].T
    # (heading, level) arrays from here on
    x = fx.arr_mul(lam, w_raws[:, None])
    e = exp_neg(x)
    g1 = fx.arr_sub(fx.ONE_RAW, e)
    g2 = fx.arr_sub(fx.ONE_RAW, fx.arr_mul(e, fx.arr_add(fx.ONE_RAW, x)))
    xx = fx.arr_mul(x, x)
    poly = fx.arr_add(xx, fx.arr_add(fx.arr_add(x, x), fx.TWO_RAW))
    g3 = fx.arr_sub(fx.TWO_RAW, fx.arr_mul(e, poly))
    c1 = fx.arr_mul(inv_lam, fx.arr_add(g3, fx.arr_mul(g2, neg_log_lam)))
    c2 = fx.arr_mul(inv_lam, g2)
    c3 = fx.arr_add(g2, fx.arr_mul(g1, neg_log_lam))
    rows[:, :, chained] = (e, x, c1, c2, c3, g1)
    return rows.reshape(6, -1)


def _step_bound(m: int, x: int, w: int, e: int, c: int, k1: int,
                dth: int) -> tuple[int, int]:
    """Bounds of one sweep step from state words of magnitude at most
    ``m``, given the magnitude maxima of its multipliers (x, the cell
    width w, E, k1, dtheta) and of its constants C1..C4: the bound on the
    new state words, and the bound on every word the step makes.

    A product a*b of words rounds to a word of magnitude at most
    a*b // SCALE + 1, the + 1 covering the rounding; a sum is bounded by
    the sum of its terms' bounds.
    """
    def mul(a, b):
        return a * b // fx.SCALE + 1

    m1 = m + mul(x, m)        # (a1, a0) += x*(b1, b0)
    m2 = m1 + mul(w, m1)      # (a1, b1) += w*(a0, b0)
    m3 = mul(e, m2) + c       # E*state + (C1, C2, C3, C4)
    d = m3 + mul(k1, m3)      # a1 - k1*b1
    return m3, max(m2, d, mul(d, dth))


# Most steps one max|state| reading may cover.  Each costs one
# ``_step_bound`` iterate, and the state bound of a step with x = w = 0
# grows by only 3 words an iterate, so the cap keeps a reading's Python
# work in proportion to the steps it can cover.
SPAN_MAX = 64


def _step_span(m: int, maxima: tuple) -> int:
    """Steps in a row that can make no word outside the range, from state
    words of magnitude at most ``m``: ``_step_bound`` iterated on its own
    state bound until its word bound passes ``RAW_MAX``, at most
    ``SPAN_MAX`` times."""
    n = 0
    while n < SPAN_MAX:
        m, words = _step_bound(m, *maxima)
        if words > fx.RAW_MAX:
            break
        n += 1
    return n


def _no_clip(q: np.ndarray) -> np.ndarray:
    return q


def _sweep_step(rows: np.ndarray, w_raws: np.ndarray, k1: float, dth_raw: int):
    """The ``sweep`` table and step of the Q20.12 engine.

    ``rows`` are the preprocess rows of ``_preprocess_rows`` and
    ``w_raws`` the headings' cell-width words.  The table is a new array
    with the multiplier rows E, x and the cell width w of each column's
    heading, all scaled by 2^-12, then the rows C1..C4; ``rows`` is only
    read.

    Each step runs one op chain on the stacked (a1, b1, a0, b0) state in
    place, with one scratch array: ``(a1, a0) += x*(b1, b0)``, then
    ``(a1, b1) += w*(a0, b0)``, then ``E*state + (C1, C2, C3, C4)``, then
    the contribution ``(a1 - k1*b1)*dtheta``, returned in the scratch.
    Each op is an exact float op followed by ``fx.arr_clip``, or by no
    clip in a step that ``_step_span`` shows can make no word outside the
    range.  A span is read from max|state| over the lanes: the step that
    reads it and the steps after it on the same state array (a lane
    view's base array), up to the span's length, skip the clip; the step
    after them reads again, and so does a step on any other state array
    or on more lanes than were read.  A span of zero steps runs this step
    with the clip, on a copy of the state that it writes back.  Either
    way every word equals that of the saturating chain.
    """
    maxima = (int(np.abs(rows[1]).max()), int(np.abs(w_raws).max()),
              int(np.abs(rows[0]).max()), int(np.abs(rows[2:]).max()),
              int(abs(k1)), abs(dth_raw))
    w_row = np.repeat(w_raws, rows.shape[1] // len(w_raws))
    table = np.concatenate([rows[:2] * fx.ULP, w_row[None] * fx.ULP, rows[2:]])
    k1_scaled = k1 * fx.ULP
    dth_scaled = dth_raw * fx.ULP
    # the state array the last span was read from, its lanes then, and
    # the steps of the span still to run
    held, width, left = None, 0, 0

    def step(s, row):
        nonlocal held, width, left
        root = s if s.base is None else s.base
        if not left or root is not held or s.shape[1] > width:
            held, width = root, s.shape[1]
            left = _step_span(int(max(s.max(), -s.min())), maxima)
        if left:
            left -= 1
            clip, q = _no_clip, s
        else:
            # the clip's min/max prechecks run about twice as fast on a
            # contiguous copy as on the strided lane view
            clip, q = fx.arr_clip, s.copy()
        e, x, w, c = row[0], row[1], row[2], row[3:]
        evens, top = q[0::2], q[:2]
        p = clip(fx.round_product(x, q[1::2]))
        clip(np.add(evens, p, out=evens))
        clip(fx.round_product(w, q[2:], out=p))
        clip(np.add(top, p, out=top))
        clip(fx.round_product(e, q, out=q))
        clip(np.add(q, c, out=q))
        d = clip(fx.round_product(k1_scaled, q[1], out=p[0]))
        clip(np.subtract(q[0], d, out=d))
        if q is not s:
            s[...] = q
        return clip(fx.round_product(d, dth_scaled, out=d))

    return table, step


def _fold(acc: np.ndarray, rows: np.ndarray) -> None:
    """Adds the (headings, H*W) contribution ``rows`` into the accumulator
    words ``acc`` in place, heading by heading, with the saturating add.

    When no partial sum can leave the range, the rows add in one pass:
    every partial sum of a cell lies within acc.max() + n*max(rows.max(),
    0) and acc.min() + n*min(rows.min(), 0) for n headings.  A cell's sum
    has n <= R heading words of magnitude at most 2**31, so it is exact in
    float64 while n <= 2**22, however many cells the block holds, and the
    words are those of the heading-ordered adds.  Otherwise the rows add
    one heading at a time, each sum clipped and counted.
    """
    n = len(rows)
    if (acc.max() + n * max(int(rows.max()), 0) <= fx.RAW_MAX
            and acc.min() + n * min(int(rows.min()), 0) >= fx.RAW_MIN):
        acc += rows.sum(axis=0, dtype=np.float64)
        return
    for part in rows:
        fx.arr_clip(np.add(acc, part, out=acc))


def compute_mi_map_fxp(grid: OccupancyGrid, sensor: SensorConfig = SensorConfig(),
                       params: FcmiParams = FcmiParams(),
                       memo: SweepMemo | None = None) -> MIMap:
    """Map-wide MI on the fixed-point datapath; accumulator also Q20.12.

    Runs ``grid.sweep`` with the step of ``_sweep_step``: each lane takes
    the table column of its heading and cell level, which holds the
    preprocess words and the heading's cell width, and every element passes
    through the op sequence of the scalar Q20.12 chain, with the clip
    skipped where a bound shows no op can saturate.  The sweep folds with
    ``_fold``, whose words and clips are those of the saturating add in
    heading order, so every cell saturates exactly where a sweep of one
    heading after another would.  The returned map
    carries the raw accumulator words, their decoded float values and the
    number of saturation events of the call.

    A caller that computes maps of one grid as it changes passes the same
    ``memo`` to each call; the sweep is keyed by the sensor, resolution and
    parameters, and re-steps only the scan lines that hold a changed cell
    (see ``grid.sweep`` for the rule and its cold fallbacks).  Map and
    saturation count are those of a call without it.  That holds only
    while the lanes the next call keeps clipped nothing, since their
    clips would be missing from its count; so after a call that counted a
    saturation, this function drops the memo's buffer, and the next call
    steps every lane of the one lane block the memo keeps.  The memo
    keeps its contribution buffer, H*W*rays int32 words, for the caller;
    a map does not carry it, so a caller that keeps many maps keeps one
    buffer.
    """
    sat0 = fx.saturation_count()
    w_raws = fx.encode([cell_width(float(a), grid.resolution) for a in sensor.angles])
    # the sweep reads only the rows of levels the grid holds, so only
    # those are preprocessed.  The first np.unique call raises peak RSS by
    # about 1 MB; bincount does not.
    present = np.flatnonzero(np.bincount(grid.levels.reshape(-1), minlength=101)).tolist()
    caps = cap_words(params)
    table, step = _sweep_step(_preprocess_rows(w_raws, present, caps), w_raws,
                              caps[0], fx.encode(sensor.delta_theta))
    # int32 buffer: saturated words fit
    mi_flat = sweep(grid.levels, sensor.ray_count, table, step, _fold, np.int32,
                    memo, (sensor, grid.resolution, params))
    saturations = fx.saturation_count() - sat0
    if memo is not None and saturations:
        memo.buf = None
    raw = mi_flat.reshape(grid.shape).astype(np.int32)
    return MIMap(raw.astype(np.float64) / fx.SCALE, raw=raw, saturations=saturations)


def dump_tables() -> str:
    """Golden-file text dump: LUT entries then exp knots, raw words."""
    lut = OCC_LUT.astype(np.int64).tolist()
    lines = [f"{i} {lam} {neg_log_lam} {inv_lam}"
             for i, (lam, neg_log_lam, inv_lam) in enumerate(lut)]
    lines += [f"{k} {knot}" for k, knot in enumerate(EXP_KNOTS.tolist())]
    return "\n".join(lines) + "\n"
