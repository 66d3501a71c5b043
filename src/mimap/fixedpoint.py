"""Q20.12 saturating fixed-point arithmetic.

Values are 32-bit two's-complement words with 12 fractional bits, so the
representable range is [-2^19, 2^19 - 2^-12] with resolution 2^-12.  All
operations round to nearest with ties to even and saturate at the range
ends instead of wrapping.  Saturation is silent but counted in one
running total; a consumer takes the difference of two
``saturation_count()`` readings to learn how often a workload clipped,
and ``compute_mi_map_fxp`` does so for each call.

``encode`` turns a real into a word; the ``arr_*`` ops work on whole
int64 numpy arrays of words.  The test suite checks them against exact
integer and decimal models, and its oracles hold the scalar Q20.12 chain
that is the datapath's bit-exact reference.  Each ``arr_*`` result
passes a range test; the map engine's sweep step avoids that cost where
a bound shows no word can leave the range, and runs there as exact
float64 arithmetic on the same words (see ``datapath``).
"""

import math

import numpy as np

FRAC_BITS = 12
SCALE = 1 << FRAC_BITS           # 4096
RAW_MIN = -(1 << 31)
RAW_MAX = (1 << 31) - 1
ONE_RAW = SCALE
TWO_RAW = 2 * SCALE
HALF_ULP = SCALE // 2            # tie point of the dropped fraction bits

_sat_events = 0


def saturation_count() -> int:
    return _sat_events


def _saturate(raw: int) -> int:
    global _sat_events
    if raw > RAW_MAX:
        _sat_events += 1
        return RAW_MAX
    if raw < RAW_MIN:
        _sat_events += 1
        return RAW_MIN
    return raw


def encode(x: float) -> int:
    """Real -> raw word, round-to-nearest-ties-even, saturating.  A value
    whose scaled word is not finite (NaN, infinity, or beyond about 4e304)
    has no word to saturate to and raises ValueError."""
    scaled = float(x) * SCALE
    if not math.isfinite(scaled):
        raise ValueError(f"cannot encode {x} as a Q20.12 word")
    return _saturate(round(scaled))


def decode(raw: int) -> float:
    return raw / SCALE


def _arr_saturate(q: np.ndarray) -> np.ndarray:
    global _sat_events
    # min/max precheck keeps the common in-range case allocation-free
    if RAW_MIN <= q.min() and q.max() <= RAW_MAX:
        return q
    clipped = np.minimum(np.maximum(q, RAW_MIN), RAW_MAX)
    _sat_events += int(np.count_nonzero(clipped != q))
    return clipped


def arr_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _arr_saturate(a + b)


def arr_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _arr_saturate(a - b)


def arr_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact 64-bit product, dropped 12 bits rounded half-to-even, saturated."""
    # int64 is safe: |a|,|b| <= 2^31 so |a*b| <= 2^62
    p = a * b
    # half-to-even in one pass on the product: adding HALF_ULP - 1 plus
    # the kept word's low bit carries exactly when the dropped bits exceed
    # HALF_ULP, or equal it with that bit set
    p += (p >> FRAC_BITS) & 1
    p += HALF_ULP - 1
    p >>= FRAC_BITS
    return _arr_saturate(p)
