"""Fixed-point datapath model: occupancy LUTs, the piecewise-linear
exponential, and the Q20.12 realization of the expectation recursion.

The dataflow mirrors the hardware split:

  preprocess  - per cell: LUT fetch (lam, -log lam, 1/lam), x = lam*w, the
                PWL exponential E = pwl(-x), the three gamma values, and
                the four additive constants C1..C4
  feedback    - the recursive update of (a1, b1, a0, b0)
  postprocess - MI contribution (a1 - (1 - log cap)*b1) * dtheta and the
                read-modify-write into the MI accumulator

Preprocess outputs depend only on (occupancy level, heading), so the map
engine computes them for each heading and each level the grid holds in
one pass of the saturating array ops over (heading, level), into one
table keyed by ``heading*101 + level``; levels 0 and 100 take constant
rows.  Feedback and postprocess are the step of ``grid.sweep``, which
runs every scan line of every heading as a lane and folds the
contributions into the accumulator in heading order.

The step runs on float64 lanes that hold the Q20.12 words exactly, with
the multipliers E, x, the cell width, k1 and dtheta scaled by 2^-12 (an
exact scaling), so a fixed-point multiply is ``np.rint(a * b_scaled)``.
That is ``fixedpoint.arr_mul`` bit for bit whenever the integer product
a*b is below 2^53 in magnitude, which makes the float product exact and
leaves ``np.rint`` to round it half to even, and the word is in range.
Each step first bounds every word of its op chain from max|state| and
the table's maxima (``_step_bound``).  In range, every product is below
2^43, and no op saturates; out of range, the step runs the same chain
with the saturating int64 ops, and the sweep folds with ``arr_add``.  So
every element passes through the ops of one scalar Q20.12 chain in its
order, with its rounding and saturation.  That chain, written from the
defining math with its own ops and saturation count, is the bit-exact
reference in the test suite's oracles: the map and its saturation count
are those of chaining it cell by cell and heading by heading, with
preprocess once per (heading, level) the grid holds.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import fixedpoint as fx
from .grid import (FcmiParams, MIMap, OccupancyGrid, SensorConfig, SweepMemo,
                   cell_width, sweep)

PWL_SEGMENTS = 16
PWL_LO = -8.0
PWL_LO_RAW = fx.encode(PWL_LO)            # -32768
PWL_SEG_RAW = (-PWL_LO_RAW) // PWL_SEGMENTS  # 2048 raw units per segment


class OccLutEntry(NamedTuple):
    lam: int
    neg_log_lam: int
    inv_lam: int


@dataclass(frozen=True, eq=False)
class PwlExpTable:
    """16 uniform segments fitting exp(x) on [-8, 0].

    ``m``/``c`` are the exact continuous least-squares coefficients,
    ``m_raw``/``c_raw`` their Q20.12 roundings used by the datapath.
    """

    m: np.ndarray
    c: np.ndarray
    m_raw: np.ndarray
    c_raw: np.ndarray


@dataclass(frozen=True)
class FxpConstants:
    """Cap-derived datapath constants, encoded once in double precision."""

    k1: int          # 1 - log(cap), the conditional-entropy weight
    occ_a1: int      # (2 - log(cap)) / cap
    occ_b1: int      # 1 / cap

    @classmethod
    def from_params(cls, params: FcmiParams) -> "FxpConstants":
        cap = params.lambda_cap
        ln_cap = params.log_lambda_cap
        return cls(k1=fx.encode(1.0 - ln_cap),
                   occ_a1=fx.encode((2.0 - ln_cap) / cap),
                   occ_b1=fx.encode(1.0 / cap))


def build_occ_lut(params: FcmiParams = FcmiParams()) -> list[OccLutEntry]:
    """101 entries of (lam, -log lam, 1/lam); levels 0 and 100 hold zero
    words, which nothing reads: their preprocess rows are constants."""
    entries = [OccLutEntry(0, 0, 0)]
    for level in range(1, 100):
        lam = -math.log1p(-level / 100.0)
        entries.append(OccLutEntry(fx.encode(lam), fx.encode(-math.log(lam)),
                                   fx.encode(1.0 / lam)))
    entries.append(OccLutEntry(0, 0, 0))
    return entries


def build_pwl_exp() -> PwlExpTable:
    """Continuous least-squares line fit of exp(x) per uniform segment.

    Minimizing the integral of (exp(x) - m*x - c)^2 over [a, b] gives the
    normal equations

        m*I_xx + c*I_x = J_x      I_xx = (b^3 - a^3)/3   J_x = x exp x - exp x |
        m*I_x  + c*L   = J        I_x  = (b^2 - a^2)/2   J   = exp b - exp a

    solved in closed form with the exact antiderivatives of exp and x exp.

    The raw words are quantization-aware: the slope is rounded first, then
    the intercept is refit to the rounded slope (c + (m - m_q)*(a+b)/2,
    the least-squares intercept given that slope) before its own rounding.
    Rounding both independently would let the slope's half-ulp error be
    amplified by |x| up to 8 at the left edge; the refit cancels all but
    the residual tilt across one segment, keeping the evaluated error
    within 2 ulp of the unrounded fit everywhere.
    """
    width = (0.0 - PWL_LO) / PWL_SEGMENTS
    m = np.empty(PWL_SEGMENTS)
    c = np.empty(PWL_SEGMENTS)
    m_raw = np.empty(PWL_SEGMENTS, dtype=np.int64)
    c_raw = np.empty(PWL_SEGMENTS, dtype=np.int64)
    for k in range(PWL_SEGMENTS):
        a = PWL_LO + k * width
        b = a + width
        ea, eb = math.exp(a), math.exp(b)
        big_j = eb - ea
        big_jx = (b - 1.0) * eb - (a - 1.0) * ea
        i_xx = (b ** 3 - a ** 3) / 3.0
        i_x = (b * b - a * a) / 2.0
        det = i_xx * width - i_x * i_x
        m[k] = (big_jx * width - big_j * i_x) / det
        c[k] = (big_j * i_xx - big_jx * i_x) / det
        m_raw[k] = fx.encode(m[k])
        c_raw[k] = fx.encode(c[k] + (m[k] - m_raw[k] / fx.SCALE) * (a + b) / 2.0)
    return PwlExpTable(m, c, m_raw, c_raw)


def pwl_exp(x_raw: np.ndarray, table: PwlExpTable) -> np.ndarray:
    """Datapath exponential of int64 raw words: clamp to [-8, 0], then
    m*x + c of the covering segment with the saturating ops."""
    xc = np.minimum(np.maximum(x_raw, PWL_LO_RAW), 0)
    k = np.minimum((xc - PWL_LO_RAW) // PWL_SEG_RAW, PWL_SEGMENTS - 1)
    return fx.arr_add(fx.arr_mul(table.m_raw[k], xc), table.c_raw[k])


@lru_cache(maxsize=8)
def _tables_cached(lambda_cap: float):
    params = FcmiParams(lambda_cap)
    return build_occ_lut(params), build_pwl_exp(), FxpConstants.from_params(params)


def _preprocess_rows(w_raws: np.ndarray, levels: list[int],
                     params: FcmiParams = FcmiParams()) -> np.ndarray:
    """(6, headings*101) int64 matrix of preprocess outputs (E, x, C1, C2,
    C3, C4), column ``heading*101 + level``, for the headings' int64
    cell-width words ``w_raws``.

    Only the columns of ``levels`` are filled; the others stay zero.  The
    interior levels of every heading run the preprocess op chain as one
    array pass of the saturating ops; levels 0 and 100 take constant rows
    and pass through no op.
    """
    lut, table, consts = _tables_cached(params.lambda_cap)
    rows = np.zeros((6, len(w_raws), 101), dtype=np.int64)
    if 0 in levels:
        # E=1, x=0 and zero constants turn the update into the pass-through
        # (a1 + w*a0, b1 + w*b0, a0, b0) exactly
        rows[:, :, 0] = np.array([fx.ONE_RAW, 0, 0, 0, 0, 0])[:, None]
    if 100 in levels:
        # E=0 erases the previous state; the constants carry the o=1 limits
        # (2 - log cap)/cap, 1/cap, 1 - log cap and 1
        rows[:, :, 100] = np.array([0, 0, consts.occ_a1, consts.occ_b1,
                                    consts.k1, fx.ONE_RAW])[:, None]
    mid = [level for level in levels if 0 < level < 100]
    if not mid:
        return rows.reshape(6, -1)
    lam, neg_log_lam, inv_lam = np.array([lut[level] for level in mid],
                                         dtype=np.int64).T
    # (heading, level) arrays from here on
    x = fx.arr_mul(lam, w_raws[:, None])
    e = pwl_exp(fx.arr_sub(0, x), table)
    g1 = fx.arr_sub(fx.ONE_RAW, e)
    g2 = fx.arr_sub(fx.ONE_RAW, fx.arr_mul(e, fx.arr_add(fx.ONE_RAW, x)))
    xx = fx.arr_mul(x, x)
    poly = fx.arr_add(xx, fx.arr_add(fx.arr_add(x, x), fx.TWO_RAW))
    g3 = fx.arr_sub(fx.TWO_RAW, fx.arr_mul(e, poly))
    c1 = fx.arr_mul(inv_lam, fx.arr_add(g3, fx.arr_mul(g2, neg_log_lam)))
    c2 = fx.arr_mul(inv_lam, g2)
    c3 = fx.arr_add(g2, fx.arr_mul(g1, neg_log_lam))
    rows[:, :, mid] = (e, x, c1, c2, c3, g1)
    return rows.reshape(6, -1)


def _step_bound(m: int, x: int, w: int, e: int, c: int, k1: int, dth: int) -> int:
    """Bound on every word one sweep step makes from state words of
    magnitude at most ``m``, given the magnitude maxima of its multipliers
    (x, the cell width w, E, k1, dtheta) and of its constants C1..C4.

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
    return max(m2, d, mul(d, dth))


def _round_product(a, b_scaled):
    p = a * b_scaled
    return np.rint(p, out=p)


# (add, sub, mul) of the step: exact float64 lane arithmetic on words and
# 2^-12-scaled multipliers, or the saturating int64 ops on words
_EXACT_OPS = (np.add, np.subtract, _round_product)
_SATURATING_OPS = (fx.arr_add, fx.arr_sub, fx.arr_mul)


def _sweep_step(rows: np.ndarray, w_raws: np.ndarray, k1: int, dth_raw: int):
    """The ``sweep`` table and step of the Q20.12 engine.

    ``rows`` are the int64 preprocess rows of ``_preprocess_rows`` and
    ``w_raws`` the headings' cell-width words.  The table is ``rows`` as
    float64, with the multiplier rows E and x scaled by 2^-12; the state
    is float64 too.  Every float holds an integer word, or a word times
    2^-12, exactly.

    Each step runs one op chain on the stacked (a1, b1, a0, b0) state:
    ``(a1, a0) += x*(b1, b0)``, then ``(a1, b1) += w*(a0, b0)``, then
    ``E*state + (C1, C2, C3, C4)``, then the contribution
    ``(a1 - k1*b1)*dtheta``.  It first takes max|state| over the active
    lanes and bounds every word of the chain with ``_step_bound``.  When
    the bound is at most ``RAW_MAX``, no op can saturate, and every
    product a*b is below SCALE * 2^31 = 2^43, so the float product
    a * (b * 2^-12) is exact; ``np.rint`` then rounds it half to even, as
    ``fixedpoint.arr_mul`` does, and the chain runs as plain float64
    arithmetic.  Otherwise the step runs the same chain on int64 copies
    with the saturating ``fixedpoint`` ops, which count each clip.
    Either way every word equals that of the saturating chain.
    """
    table = rows.astype(np.float64)
    table[:2] *= 2.0 ** -fx.FRAC_BITS
    w_scaled = w_raws * 2.0 ** -fx.FRAC_BITS
    k1_scaled = k1 * 2.0 ** -fx.FRAC_BITS
    dth_scaled = dth_raw * 2.0 ** -fx.FRAC_BITS
    maxima = (int(np.abs(rows[1]).max()), int(np.abs(w_raws).max()),
              int(np.abs(rows[0]).max()), int(np.abs(rows[2:]).max()),
              abs(k1), abs(dth_raw))

    def step(s, row, headings):
        m = int(max(s.max(), -s.min()))
        if _step_bound(m, *maxima) <= fx.RAW_MAX:
            add, sub, mul = _EXACT_OPS
            t, e, x, c = s, row[0], row[1], row[2:]
            w, k, d = w_scaled.take(headings), k1_scaled, dth_scaled
        else:
            add, sub, mul = _SATURATING_OPS
            t = s.astype(np.int64)
            e, x = (row[:2] * fx.SCALE).astype(np.int64)
            c = row[2:].astype(np.int64)
            w, k, d = w_raws.take(headings), k1, dth_raw
        t[0::2] = add(t[0::2], mul(x, t[1::2]))
        t[:2] = add(t[:2], mul(w, t[2:]))
        t[:] = add(mul(e, t), c)
        out = mul(sub(t[0], mul(k, t[1])), d)
        if t is not s:
            s[:] = t
        return out

    return table, step


def compute_mi_map_fxp(grid: OccupancyGrid, sensor: SensorConfig = SensorConfig(),
                       params: FcmiParams = FcmiParams(),
                       memo: SweepMemo | None = None) -> MIMap:
    """Map-wide MI on the fixed-point datapath; accumulator also Q20.12.

    Runs ``grid.sweep`` with the step of ``_sweep_step``: each lane takes
    its heading's preprocess rows and cell width, and every element passes
    through the op sequence of the scalar Q20.12 chain, in exact float64
    arithmetic where a bound shows no op can saturate and with the
    saturating int64 ops otherwise.  The sweep folds with the saturating
    add in heading order, so every cell saturates exactly where a sweep of
    one heading after another would.  The returned map carries the raw
    accumulator words, their decoded float values and the number of
    saturation events of the call.

    A caller that computes maps of one grid as it changes passes the same
    ``memo`` to each call; the sweep is keyed by the sensor, resolution and
    parameters, and re-steps only the scan lines that hold a changed cell
    (see ``grid.sweep`` for the rule and its cold fallbacks).  Map and
    saturation count are those of a call without it.  That holds only
    while the lanes the next call keeps clipped nothing, since their
    clips would be missing from its count; so after a call that counted a
    saturation, this function empties the memo's buffers, and the next
    call steps every lane on the lane blocks the memo keeps.  The memo
    keeps its contribution buffers, H*W*rays int32 words, for the caller;
    a map does not carry them, so a caller that keeps many maps keeps one
    buffer.
    """
    sat0 = fx.saturation_count()
    w_raws = np.array([fx.encode(cell_width(float(a), grid.resolution))
                       for a in sensor.angles], dtype=np.int64)
    # the sweep reads only the rows of levels the grid holds, so only
    # those are preprocessed.  The first np.unique call raises peak RSS by
    # about 1 MB; bincount does not.
    present = np.flatnonzero(np.bincount(grid.levels.reshape(-1), minlength=101)).tolist()
    _, _, consts = _tables_cached(params.lambda_cap)
    # the int64 rows are not bound here: the step keeps only their maxima,
    # so they are freed before the sweep
    table, step = _sweep_step(_preprocess_rows(w_raws, present, params), w_raws,
                              consts.k1, fx.encode(sensor.delta_theta))
    # int32 buffer: saturated words fit
    mi_flat = sweep(grid.levels, sensor.angles, table, step, fx.arr_add, np.int32,
                    memo, (sensor, grid.resolution, params))
    saturations = fx.saturation_count() - sat0
    if memo is not None and saturations:
        memo.bufs = []
    raw = mi_flat.reshape(grid.shape).astype(np.int32)
    return MIMap(raw.astype(np.float64) / fx.SCALE, grid.resolution, raw=raw,
                 saturations=saturations)


def dump_tables(params: FcmiParams = FcmiParams()) -> str:
    """Golden-file text dump: LUT entries then PWL segments, raw words."""
    lut, table, _ = _tables_cached(params.lambda_cap)
    lines = [f"{i} {e.lam} {e.neg_log_lam} {e.inv_lam}" for i, e in enumerate(lut)]
    lines += [f"{k} {int(table.m_raw[k])} {int(table.c_raw[k])}"
              for k in range(PWL_SEGMENTS)]
    return "\n".join(lines) + "\n"
