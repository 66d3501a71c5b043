"""Floating-point MI reference: step coefficients, emission, map sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from mimap.grid import FcmiParams, OccupancyGrid, SensorConfig
from mimap.reference import _level_coeffs, compute_mi_map, map_entropy

CAP = FcmiParams()  # lambda cap 1e7
LN_CAP = CAP.log_lambda_cap
K1 = 1.0 - LN_CAP
TWO_PI = 2.0 * math.pi  # delta_theta of SensorConfig(1)
LEVELS = np.arange(1, 100)  # interior occupancy levels
LAMBDAS = -np.log1p(-LEVELS / 100.0)


def apply(row, state):
    """One recursion step: the affine update ``_level_coeffs`` documents."""
    a1, b1, a0, b0 = state
    return (float(row[0] * a1 + row[1] * b1 + row[2] * a0 + row[3] * b0 + row[5]),
            float(row[0] * b1 + row[2] * b0 + row[6]),
            float(row[0] * a0 + row[4] * b0 + row[7]),
            float(row[0] * b0 + row[8]))


def line_mi(levels, resolution=1.0):
    """MI of a 1xN grid under one heading (angle 0): every cell's beam runs
    toward the last column, so the row is swept from column N-1 to 0."""
    grid = OccupancyGrid(np.array([levels], dtype=np.uint8), resolution)
    return compute_mi_map(grid, SensorConfig(1), CAP).values[0]


# ---------------------------------------------------------------- gammas
# Interior rows carry g1 = gamma(1, x) in T8 and g2 / lam = gamma(2, x) / lam
# in T6, with x = lam * w; g3 = gamma(3, x) enters through T5.


def test_gamma_endpoints():
    # lam -> 0 (the free row): every gamma term vanishes
    np.testing.assert_array_equal(_level_coeffs(0.7, CAP)[0, 5:], 0.0)
    # complete-gamma limits (s-1)!: x >= 50 on every interior level
    t = _level_coeffs(5e3, CAP)[1:100]
    ln_lam = np.log(LAMBDAS)
    np.testing.assert_allclose(t[:, 8], 1.0, rtol=1e-15)
    np.testing.assert_allclose(t[:, 6] * LAMBDAS, 1.0, rtol=1e-15)
    np.testing.assert_allclose(t[:, 7], 1.0 - ln_lam, rtol=1e-15)
    np.testing.assert_allclose(t[:, 5], (2.0 - ln_lam) / LAMBDAS, rtol=1e-15)


def test_gamma_closed_forms_match_quadrature():
    lam = LAMBDAS[49]  # level 50; this width puts it at x = 1
    t = _level_coeffs(1.0 / lam, CAP)[50]
    assert t[8] == pytest.approx(0.632120559, abs=1e-9)
    assert t[6] * lam == pytest.approx(0.264241118, abs=1e-9)
    for w in (0.05, 0.1, 1.5, 4.0):
        t = _level_coeffs(w, CAP)
        for level, lam in zip(LEVELS, LAMBDAS):
            x = lam * w
            g1, g2, g3 = (oracles.quad_gamma_lower(s, x) for s in (1, 2, 3))
            ln_lam = math.log(lam)
            want = {8: g1, 6: g2 / lam, 7: g2 - g1 * ln_lam, 5: (g3 - g2 * ln_lam) / lam}
            for col, value in want.items():
                assert t[level, col] == pytest.approx(value, rel=1e-12, abs=1e-13)


@given(st.floats(0.01, 30.0))
def test_gamma_monotone_in_x(width):
    # x = lam * width grows with the level, and so must gamma(s, x)
    t = _level_coeffs(width, CAP)[1:100]
    assert np.all(np.diff(t[:, 8]) >= -1e-15)
    assert np.all(np.diff(t[:, 6] * LAMBDAS) >= -1e-15)


# ---------------------------------------------------------------- recursion


def test_step_free_cell_closed_form():
    row = _level_coeffs(0.7, CAP)[0]
    np.testing.assert_array_equal(row, [1.0, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    out = apply(row, (0.25, 0.5, -1.5, 2.0))
    assert out == (0.25 + 0.7 * -1.5, 0.5 + 0.7 * 2.0, -1.5, 2.0)


def test_step_occupied_cell_erases_history():
    row = _level_coeffs(1.0, CAP)[100]
    np.testing.assert_array_equal(row[:5], 0.0)
    for prev in ((0.0, 0.0, 0.0, 0.0), (9.0, 9.0, 9.0, 9.0)):
        a1, b1, a0, b0 = apply(row, prev)
        assert a1 == pytest.approx((2.0 - LN_CAP) / 1e7, rel=1e-12)
        assert a1 == pytest.approx(-1.4118e-6, abs=1e-10)
        assert b1 == 1e-7
        assert a0 == pytest.approx(1.0 - LN_CAP, rel=1e-12)
        assert a0 == pytest.approx(-15.1181, abs=1e-4)
        assert b0 == 1.0


def test_step_half_occupied_from_zero():
    out = apply(_level_coeffs(1.0, CAP)[50], (0.0, 0.0, 0.0, 0.0))
    lam = math.log(2.0)
    e = math.exp(-lam)
    assert out[3] == pytest.approx(1.0 - e, rel=1e-15)  # gamma(1, lam)
    assert out[3] == pytest.approx(0.5, rel=1e-12)
    assert out[1] == pytest.approx((1.0 - e * (1.0 + lam)) / lam, rel=1e-14)
    mp_out = oracles.mp_step((0, 0, 0, 0), oracles.mpmath.mpf(1) / 2, 1)
    for got, want in zip(out, mp_out):
        assert got == pytest.approx(float(want), rel=1e-13)


def test_step_matches_mp_oracle_along_random_chains(rng):
    for _ in range(5):
        levels = rng.integers(0, 101, size=12)
        w = float(rng.uniform(0.05, 1.5))
        coeffs = _level_coeffs(w, CAP)
        state = (0.0, 0.0, 0.0, 0.0)
        mp_state = (0, 0, 0, 0)
        for lv in levels:
            state = apply(coeffs[lv], state)
            mp_state = oracles.mp_step(mp_state, oracles.mpmath.mpf(int(lv)) / 100, w)
            for got, want in zip(state, mp_state):
                assert got == pytest.approx(float(want), rel=1e-11, abs=1e-18)


@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=30),
    st.floats(0.01, 2.0),
)
def test_beta_terms_stay_nonnegative(levels, width):
    coeffs = _level_coeffs(width, CAP)
    state = (0.0, 0.0, 0.0, 0.0)
    for lv in levels:
        state = apply(coeffs[lv], state)
        assert state[3] >= 0.0
        assert state[1] >= 0.0
        assert all(math.isfinite(v) for v in state)


# ---------------------------------------------------------------- entropies
# Each cell emits H - H_cond = (a1 - (1 - ln cap) * b1) * delta_theta.


def test_entropy_pair_zero_state():
    # a free cell with nothing beyond it leaves the state at zero: H = H_cond = 0
    assert line_mi([0]).tolist() == [0.0]


def test_entropy_pair_conditional_term():
    # an Nx1 grid at angle 0 is N one-cell lines, so every cell emits the
    # constant terms of its level's row: H = C1 * dth, H_cond = K1 * C2 * dth
    grid = OccupancyGrid(np.arange(101, dtype=np.uint8)[:, None], resolution=0.3)
    got = compute_mi_map(grid, SensorConfig(1), CAP).values[:, 0]
    t = _level_coeffs(0.3, CAP)
    np.testing.assert_array_equal(got, (t[:, 5] - K1 * t[:, 6]) * TWO_PI)
    h_cond = K1 * t[100, 6] * TWO_PI
    assert h_cond == pytest.approx(K1 * 1e-7 * TWO_PI, rel=1e-15)
    assert h_cond == pytest.approx(-9.4990e-6, abs=6e-10)


def test_occupied_cell_mi_is_dtheta_over_cap():
    mi = line_mi([100])[0]
    assert mi == pytest.approx(TWO_PI / 1e7, rel=1e-12)
    assert mi == pytest.approx(6.2832e-7, abs=6e-11)


# ---------------------------------------------------------------- line sweeps


def test_scan_line_all_free_stays_zero():
    np.testing.assert_array_equal(line_mi([0] * 8), 0.0)


def test_scan_line_single_occupied_cell():
    # the cells beyond the wall see only free space; the wall emits dth / cap
    mi = line_mi([100, 0, 0, 0])
    np.testing.assert_array_equal(mi[1:], 0.0)
    assert mi[0] == pytest.approx(TWO_PI / 1e7, rel=1e-12)


def test_scan_line_three_cells_match_unrolled_oracle():
    mi = line_mi([50, 50, 50], resolution=0.1)
    mp_state = (0, 0, 0, 0)
    w = oracles.mpmath.mpf(1) / 10
    half = oracles.mpmath.mpf(1) / 2
    for col in (2, 1, 0):
        mp_state = oracles.mp_step(mp_state, half, w)
        a1, b1 = mp_state[0], mp_state[1]
        want = float((a1 - (1 - oracles.mpmath.log(1e7)) * b1) * TWO_PI)
        assert mi[col] == pytest.approx(want, rel=1e-12)


def test_scan_order_locality():
    # contributions already emitted must not depend on cells folded later
    rng = np.random.default_rng(7)
    levels = rng.integers(0, 101, size=10)
    base = line_mi(levels)
    mutated = levels.copy()
    mutated[4] = 100 - mutated[4]
    changed = line_mi(mutated)
    np.testing.assert_array_equal(changed[5:], base[5:])  # beyond the mutation
    assert np.any(changed[:5] != base[:5])


# ---------------------------------------------------------------- map sweeps


def test_map_all_free_is_zero():
    mi = compute_mi_map(OccupancyGrid(np.zeros((6, 6), dtype=np.uint8)))
    np.testing.assert_array_equal(mi.values, 0.0)


def test_map_matches_brute_force_oracle(rng):
    # square, 1xN, Nx1 and non-square grids; ray counts off multiples of 4
    for shape, ray_counts in (((5, 5), (4, 8, 60)), ((1, 20), (5, 13)),
                              ((17, 1), (7, 8)), ((3, 8), (5, 7, 13)),
                              ((8, 5), (7, 60))):
        levels = rng.integers(0, 101, size=shape, dtype=np.uint8)
        grid = OccupancyGrid(levels, resolution=0.25)
        for rays in ray_counts:
            got = compute_mi_map(grid, SensorConfig(rays), CAP).values
            want = oracles.brute_force_mi_map(levels, rays, 0.25)
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-9 * scale, (shape, rays)


def test_map_rotation_symmetry_axis_rays():
    # constant grid, axis-aligned headings: families rotate exactly
    mi = compute_mi_map(OccupancyGrid.uniform((9, 9), level=35), SensorConfig(4))
    np.testing.assert_allclose(mi.values, np.rot90(mi.values), rtol=0, atol=1e-12)


def test_map_rotation_symmetry_dense_rays():
    # with oblique headings the symmetry is only approximate: cos(t + pi/2)
    # and -sin(t) round differently, so a few midpoint ties flip and single
    # cells hop between adjacent discrete lines near the boundary
    mi = compute_mi_map(OccupancyGrid.uniform((9, 9), level=35), SensorConfig(60))
    gap = np.abs(mi.values - np.rot90(mi.values)).max()
    assert gap <= 0.025 * np.abs(mi.values).max()


def test_map_cap_scaling_on_occupied_cell():
    grid = OccupancyGrid(np.array([[100]], dtype=np.uint8))
    lo = compute_mi_map(grid, SensorConfig(60), FcmiParams(1e7)).values[0, 0]
    hi = compute_mi_map(grid, SensorConfig(60), FcmiParams(1e8)).values[0, 0]
    assert lo == pytest.approx(2.0 * math.pi / 1e7, rel=1e-12)
    assert lo / hi == pytest.approx(10.0, rel=1e-12)


def test_map_is_deterministic(make_grid):
    grid = make_grid(12, 9)
    a = compute_mi_map(grid, SensorConfig(8)).values
    b = compute_mi_map(grid, SensorConfig(8)).values
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- map entropy


def test_map_entropy_values():
    assert map_entropy(OccupancyGrid.uniform((10, 10))) == pytest.approx(
        100.0 * math.log(2.0), rel=1e-14
    )
    known = OccupancyGrid(np.array([[0, 100], [100, 0]], dtype=np.uint8))
    assert map_entropy(known) == 0.0
    one = OccupancyGrid(np.array([[25]], dtype=np.uint8))
    assert map_entropy(one) == pytest.approx(0.562335, abs=1e-6)


def test_map_entropy_ignores_cell_order():
    # the same cells in any order give the same float, bit for bit, and
    # that float is the per-cell sum
    rng = np.random.default_rng(11)
    levels = rng.integers(0, 101, (57, 57), dtype=np.uint8)
    h = map_entropy(OccupancyGrid(levels))
    o = levels.reshape(-1) / 100.0
    inner = o[(o > 0) & (o < 1)]
    assert h == pytest.approx(math.fsum(-inner * np.log(inner) - (1 - inner) * np.log1p(-inner)),
                              rel=1e-13)
    for _ in range(20):
        shuffled = rng.permutation(levels.reshape(-1)).reshape(levels.shape)
        assert map_entropy(OccupancyGrid(shuffled)) == h
