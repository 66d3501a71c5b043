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
that is exact).  The step keeps its multipliers E, x, the cell width,
k1 and dtheta scaled by 2^-12, so its multiply is
``fixedpoint.round_product``, and runs one op chain on the lane state in
place.

The engine's domain is where that chain cannot saturate.  A line runs
along its heading's major axis, one cell per major coordinate, so no
lane runs more than max(H, W) steps, each from a zero state.
``_domain_bound`` bounds every word of that many steps from the table's
joint maxima over its columns (E, E*x, E*w, E*w*x, x, w and
|C1|..|C3|) and from C4 = 1 - E; one check a call compares it with
``RAW_MAX``.  Inside the domain no step of the call clips or counts,
so the chain is plain float arithmetic; outside it every step runs the
clipping ops.  With all 101 levels at 60 rays the domain holds up to
about 12.5 m a cell at 57^2 (bound 1.65e9 at 10 m), 1.2 m at 201^2
(1.78e8 at 0.1 m, 1.79e9 at 1 m) and 0.18 m at 512^2, ``MAX_MAP``
(1.15e9 at 0.1 m).  The bound is loose: the largest state word of a
cold 201^2 call on ``explore_a`` at 0.1 m is 1.42e6.

The fold adds a block's heading rows in one pass when no partial sum
can leave the range, and with the saturating add heading by heading
otherwise (``_fold``).  So every element passes through the ops of one
scalar Q20.12 chain in its order, with its rounding and saturation.
That chain, written from the defining math with its own ops and
saturation count, is the bit-exact reference in the test suite's
oracles: the map and its saturation count are those of chaining it cell
by cell and heading by heading, with preprocess once per (heading,
level) the grid holds.
"""

import math
import operator

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


def _domain_bound(rows: np.ndarray, w_raws: np.ndarray, k1: float, dth_raw: int,
                  steps: int) -> int:
    """A bound on the magnitude of every word that ``steps`` sweep steps
    make from a zero state, whatever columns of the preprocess ``rows``
    they read: rows of ``_preprocess_rows`` for the headings' cell-width
    words ``w_raws``, with the contribution's words ``k1`` and dtheta.
    The bound stops at the first step whose words may pass ``RAW_MAX``,
    so past that it only says that the range may be left.

    It iterates one bound a state word (a1, b1, a0, b0) on Python ints,
    op by op.  A product of words of magnitude at most a and b rounds to
    at most mul(a, b) = a*b // SCALE + 1.  E, x and w are never negative.
    Before the multiply by E the step's words are at most a0x = a0 +
    mul(x, b0), a1 + mul(x, b1) + mul(w, a0x) and b1 + mul(w, b0), with
    the table's largest x and w.  E times each of those, expanded term by
    term in the column's E, E*x, E*w and E*w*x, rounds to at most the sum
    of the terms with each product at its largest over the columns, + 1;
    with |C1|..|C3| added that bounds the new a1, b1 and a0, and E <= 1
    keeps the products of E within it.  Every column has C4 = 1 - E
    (levels 0 to 99), E = 0 and C4 = 1 (level 100) or zeros, so E*b0 +
    C4 <= max(b0, 1) * max(E + |C4|).  Then k1*b1, a1 - k1*b1 and its
    product with dtheta close the step.
    """
    e, x = rows[:2].astype(np.int64).reshape(2, len(w_raws), -1)
    w = w_raws.astype(np.int64).tolist()
    ex = (e * x).max(axis=1).tolist()  # exact in int64; a heading has one w
    m_ew, m_ewx = (max(map(operator.mul, v, w)) for v in (e.max(axis=1).tolist(), ex))
    m_e, m_x, m_w, m_ex = int(e.max()), int(x.max()), max(w), max(ex)
    c1, c2, c3 = np.abs(rows[2:5]).max(axis=1).astype(np.int64).tolist()
    g, k1, s = int((rows[0] + np.abs(rows[5])).max()), abs(int(k1)), fx.SCALE

    def mul(a, b):
        return a * b // s + 1

    a1 = b1 = a0 = b0 = top = 0
    for _ in range(steps):
        a0x = a0 + mul(m_x, b0)                     # a0 + x*b0
        a1w = a1 + mul(m_x, b1) + mul(m_w, a0x)     # a1 + x*b1 + w*(a0 + x*b0)
        b1w = b1 + mul(m_w, b0)                     # b1 + w*b0
        # E times each of those, + (C1, C2, C3, C4)
        a1 = ((m_e * (a1 + 2) * s + m_ex * b1) * s + m_ew * (a0 + 1) * s
              + m_ewx * b0) // s ** 3 + 1 + c1
        b1 = (m_e * (b1 + 1) * s + m_ew * b0) // s ** 2 + 1 + c2
        a0 = (m_e * (a0 + 1) * s + m_ex * b0) // s ** 2 + 1 + c3
        b0 = mul(max(b0, s), g)
        d = a1 + mul(k1, b1)                        # a1 - k1*b1
        top = max(top, a1w, a0x, b1w, a1, b1, a0, b0, d, mul(d, dth_raw))
        if top > fx.RAW_MAX:
            break
    return top


def _no_clip(q: np.ndarray) -> np.ndarray:
    return q


def _sweep_step(rows: np.ndarray, w_raws: np.ndarray, k1: float, dth_raw: int,
                steps: int):
    """The ``sweep`` table and step of the Q20.12 engine, for lanes that
    start from a zero state and run at most ``steps`` steps.

    ``rows`` are the preprocess rows of ``_preprocess_rows`` and
    ``w_raws`` the headings' cell-width words.  The table is a new array
    with the multiplier rows E, x and the cell width w of each column's
    heading, all scaled by 2^-12, then the rows C1..C4; ``rows`` is only
    read.

    Each step runs one op chain on the stacked (a1, b1, a0, b0) state in
    place, with one scratch array: ``(a1, a0) += x*(b1, b0)``, then
    ``(a1, b1) += w*(a0, b0)``, then ``E*state + (C1, C2, C3, C4)``, then
    the contribution ``(a1 - k1*b1)*dtheta``, returned in the scratch.
    The step is inside the engine's domain when ``_domain_bound`` keeps
    every word of ``steps`` steps within the range: then no op clips, and
    the chain is plain float arithmetic.  Outside it, every op is an
    exact float op followed by ``fx.arr_clip``, on a copy of the state
    that the step writes back.  Either way every word equals that of the
    saturating chain.  With all 101 levels at 60 rays the domain holds up
    to about 12.5 m a cell at 57^2, 1.2 m at 201^2 and 0.18 m at 512^2.
    """
    w_row = np.repeat(w_raws, rows.shape[1] // len(w_raws))
    table = np.concatenate([rows[:2] * fx.ULP, w_row[None] * fx.ULP, rows[2:]])
    k1_scaled = k1 * fx.ULP
    dth_scaled = dth_raw * fx.ULP
    bound = _domain_bound(rows, w_raws, k1, dth_raw, steps)
    clip = fx.arr_clip if bound > fx.RAW_MAX else _no_clip

    def step(s, row):
        # the clip's min/max prechecks run about twice as fast on a
        # contiguous copy as on the strided lane view
        q = s if clip is _no_clip else s.copy()
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
    through the op sequence of the scalar Q20.12 chain.  Inside the
    engine's domain, where ``_domain_bound`` keeps every word of max(H, W)
    steps within the range, no step clips; with all 101 levels at 60 rays
    that is up to about 12.5 m a cell at 57^2, 1.2 m at 201^2 and 0.18 m
    at 512^2.  Outside it every step runs the clipping ops.  The sweep
    folds with ``_fold``, whose words and clips are those of the
    saturating add in heading order, so every cell saturates exactly where
    a sweep of one heading after another would.  The returned map carries
    the raw accumulator words, their decoded float values and the number
    of saturation events of the call.

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
    # no lane is longer than the grid's longer side
    table, step = _sweep_step(_preprocess_rows(w_raws, present, caps), w_raws,
                              caps[0], fx.encode(sensor.delta_theta), max(grid.shape))
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
