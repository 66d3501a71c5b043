"""Q20.12 primitives: rounding, saturation, and the array fast paths."""

import decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mimap.fixedpoint as fx

RAWS = st.integers(fx.RAW_MIN, fx.RAW_MAX)


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


@pytest.mark.parametrize("x", [float("inf"), float("-inf"), float("nan"), 1e306])
def test_encode_rejects_values_without_a_word(x):
    # the scaled value is not finite, so there is nothing to saturate to
    with pytest.raises(ValueError, match="cannot encode"):
        fx.encode(x)


def test_decode_range_ends():
    assert fx.decode(fx.RAW_MAX) == 2.0 ** 19 - 2.0 ** -12
    assert fx.decode(fx.RAW_MIN) == -(2.0 ** 19)
    assert fx.decode(4096) == 1.0


@given(st.floats(-(2.0 ** 19) + 1, 2.0 ** 19 - 1))
def test_encode_round_trip_within_half_ulp(x):
    raw = fx.encode(x)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        want = int((decimal.Decimal(x) * fx.SCALE)
                   .to_integral_value(rounding=decimal.ROUND_HALF_EVEN))
    assert raw == clamp(want)
    assert abs(fx.decode(raw) - x) <= 2.0 ** -13


# ---------------------------------------------------------------- multiply


def test_mul_examples():
    one = fx.encode(1.0)
    half = fx.encode(0.5)
    third = fx.encode(1.0 / 3.0)
    three = fx.encode(3.0)
    assert fx.mul_raw(one, one) == 4096
    assert fx.mul_raw(half, half) == 1024
    assert third == 1365
    got = fx.mul_raw(third, three)
    assert got == 4095  # 1365 * 12288 >> 12, exact
    assert fx.decode(got) == 0.999755859375


def test_mul_tie_cases_round_to_even():
    assert fx.mul_raw(1, fx.HALF_ULP) == 0  # 0.5 ulp -> even 0
    assert fx.mul_raw(3, fx.HALF_ULP) == 2  # 1.5 ulp -> even 2
    assert fx.mul_raw(-1, fx.HALF_ULP) == 0
    assert fx.mul_raw(-3, fx.HALF_ULP) == -2


def test_add_sub_neg_saturate():
    sat0 = fx.saturation_count()
    assert fx.add_raw(fx.RAW_MAX, 1) == fx.RAW_MAX
    assert fx.sub_raw(fx.RAW_MIN, 1) == fx.RAW_MIN
    assert fx.neg_raw(fx.RAW_MIN) == fx.RAW_MAX  # -(-2^31) has no int32 home
    assert fx.saturation_count() - sat0 == 3


@given(RAWS, RAWS)
def test_add_matches_exact_integer_model(a, b):
    assert fx.add_raw(a, b) == clamp(a + b)
    assert fx.sub_raw(a, b) == clamp(a - b)


@given(RAWS, RAWS)
def test_mul_matches_exact_decimal_model(a, b):
    assert fx.mul_raw(a, b) == clamp(rne_div_scale(a * b))


# ---------------------------------------------------------------- arrays


@given(st.lists(st.tuples(RAWS, RAWS), min_size=1, max_size=64))
def test_array_ops_match_scalar_ops(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    np.testing.assert_array_equal(
        fx.arr_add(a, b), [fx.add_raw(x, y) for x, y in pairs]
    )
    np.testing.assert_array_equal(
        fx.arr_sub(a, b), [fx.sub_raw(x, y) for x, y in pairs]
    )
    np.testing.assert_array_equal(
        fx.arr_mul(a, b), [fx.mul_raw(x, y) for x, y in pairs]
    )


def test_array_mul_ties_and_extremes_match_scalar():
    # exact ties round to the even word from both sides of zero (0.5 and
    # 1.5 ulp), and of the extremes only RAW_MAX^2 saturates
    pairs = [(1, fx.HALF_ULP), (-1, fx.HALF_ULP), (3, fx.HALF_ULP),
             (-3, fx.HALF_ULP), (fx.RAW_MIN, fx.HALF_ULP), (fx.RAW_MAX, fx.RAW_MAX)]
    want = [0, 0, 2, -2, fx.RAW_MIN // 2, fx.RAW_MAX]
    sat0 = fx.saturation_count()
    assert [fx.mul_raw(a, b) for a, b in pairs] == want
    assert fx.saturation_count() - sat0 == 1
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    sat0 = fx.saturation_count()
    np.testing.assert_array_equal(fx.arr_mul(a, b), want)
    assert fx.saturation_count() - sat0 == 1


def test_array_saturation_is_counted():
    sat0 = fx.saturation_count()
    out = fx.arr_add(np.array([fx.RAW_MAX, 0, fx.RAW_MIN], dtype=np.int64),
                     np.array([10, 10, -10], dtype=np.int64))
    np.testing.assert_array_equal(out, [fx.RAW_MAX, 10, fx.RAW_MIN])
    assert fx.saturation_count() - sat0 == 2
