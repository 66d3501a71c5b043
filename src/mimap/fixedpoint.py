"""Q20.12 saturating fixed-point arithmetic.

Values are 32-bit two's-complement words with 12 fractional bits, so the
representable range is [-2^19, 2^19 - 2^-12] with resolution 2^-12.  All
operations round to nearest with ties to even and saturate at the range
ends instead of wrapping.  Saturation is silent but counted in one
running total; a consumer takes the difference of two
``saturation_count()`` readings to learn how often a workload clipped,
and ``compute_mi_map_fxp`` does so for each call.

``encode`` turns a real, or an array of reals, into words; the ``arr_*``
ops work on whole numpy arrays of words.  The datapath holds every word
it makes as an integer-valued float64, which rests on one invariant.
Take two words a and b, so |a|, |b| <= 2^31.  Either |a*b| < 2^53, so
the float product a * (b * 2^-12) is exact and ``np.rint`` rounds it
half to even; or |a*b| >= 2^53, so the word is past 2^41 and saturates
whatever the float rounding does.  Sums of two words are below 2^32 and
exact.  So each op
is an exact float op (``np.add``, ``np.subtract``, ``round_product``)
followed by the range clip and count of ``arr_clip``.  The test suite
checks the ops against exact integer and decimal models, and its oracles
hold the scalar Q20.12 chain that is the datapath's bit-exact reference.
"""

import numpy as np

FRAC_BITS = 12
SCALE = 1 << FRAC_BITS           # 4096
ULP = 2.0 ** -FRAC_BITS          # one word's value; scaling by it is exact
RAW_MIN = -(1 << 31)
RAW_MAX = (1 << 31) - 1
ONE_RAW = SCALE
TWO_RAW = 2 * SCALE

_sat_events = 0


def saturation_count() -> int:
    return _sat_events


def encode(x):
    """Real -> raw word, round-to-nearest-ties-even, saturating.  An array
    of reals encodes elementwise to a float64 array of words.  A value
    whose scaled word is not finite (NaN, infinity, or beyond about 4e304)
    has no word to saturate to and raises ValueError."""
    with np.errstate(over="ignore"):  # an overflow is the inf caught below
        scaled = np.array(x, dtype=np.float64, ndmin=1) * SCALE
    if not np.isfinite(scaled).all():
        raise ValueError(f"cannot encode {x} as a Q20.12 word")
    words = arr_clip(np.rint(scaled, out=scaled))
    return words if np.ndim(x) else int(words[0])


def arr_clip(q: np.ndarray) -> np.ndarray:
    """``q`` clamped to the word range in place, each clipped element
    counted; returns ``q``.  An empty array comes back as it is."""
    global _sat_events
    if not q.size:
        return q
    # min/max precheck keeps the common in-range case allocation-free
    lo, hi = q.min(), q.max()
    if hi > RAW_MAX:
        _sat_events += int(np.count_nonzero(q > RAW_MAX))
        np.minimum(q, RAW_MAX, out=q)
    if lo < RAW_MIN:
        _sat_events += int(np.count_nonzero(q < RAW_MIN))
        np.maximum(q, RAW_MIN, out=q)
    return q


def round_product(a, b_scaled, out=None) -> np.ndarray:
    """The word a*b of words a and b, with b given as b * 2^-12, rounded
    half to even and not clipped: exact while |a*b| < 2^53.  Into ``out``
    when given, which may be one of the operands."""
    p = np.multiply(a, b_scaled, out=out)
    return np.rint(p, out=p)


def arr_add(a, b) -> np.ndarray:
    return arr_clip(np.add(a, b))


def arr_sub(a, b) -> np.ndarray:
    return arr_clip(np.subtract(a, b))


def arr_mul(a, b) -> np.ndarray:
    """Product of words rounded half to even, saturated; float64 words."""
    return arr_clip(round_product(a, np.multiply(b, ULP)))
