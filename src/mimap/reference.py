"""Floating-point reference for the per-beam expectation recursion.

The recursion runs along a scan line in anti-beam order.  After absorbing a
cell, the four running expectations (a1, b1, a0, b0) describe the beam that
starts at that cell, so one sweep of a scan line emits the per-cell beam
entropy for every cell on it.  Map-wide MI is the sum of those per-beam
contributions over all headings.

Per cell with occupancy o and chord width w, using lam = -log(1-o),
lam_m = min(lam, cap), x = lam_m*w, E = exp(-x) and the lower incomplete
gamma values g1 = gamma(1,x), g2 = gamma(2,x), g3 = gamma(3,x):

    a1' = E*((a1 + lam*w*b1) + w*(a0 + x*b0)) + (g3 - g2*log(lam_m))/lam_m
    b1' = E*(b1 + w*b0) + g2/lam_m
    a0' = E*(a0 + x*b0) + g2 - g1*log(lam_m)
    b0' = E*b0 + g1

o = 0 and o = 1 take the closed-form limits of the same update (rows 0
and 100 of ``_level_coeffs``).  The per-cell MI contribution is
(a1' - (1 - log cap)*b1') * delta_theta; the angular factor is applied
exactly once, here.
"""

import numpy as np

from .grid import FcmiParams, MIMap, OccupancyGrid, SensorConfig, cell_width, sweep

__all__ = ["compute_mi_map", "map_entropy"]


def _level_coeffs(w: float, params: FcmiParams) -> np.ndarray:
    """Per-level affine step coefficients for one heading.

    Row layout: [E, E*lam*w, E*w, E*x*w, E*x, C1, C2, C3, C4] so that

        a1' = T0*a1 + T1*b1 + T2*a0 + T3*b0 + T5
        b1' = T0*b1 + T2*b0 + T6
        a0' = T0*a0 + T4*b0 + T7
        b0' = T0*b0 + T8

    matches one recursion step for a cell of that level.  Levels 0 and 100
    get the closed-form limit rows: at o = 0, lam -> 0 takes E to 1 and
    every gamma term to 0; at o = 1, lam_m = cap and exp(-cap*w) underflows
    to 0 for any w >= 1e-5 m, so the previous state is erased and only the
    gamma terms remain.
    """
    cap = params.lambda_cap
    ln_cap = params.log_lambda_cap
    t = np.zeros((101, 9))
    lv = np.arange(1, 100)
    lam = -np.log1p(-lv / 100.0)
    lam_m = np.minimum(lam, cap)
    x = lam_m * w
    e = np.exp(-x)
    g1 = 1.0 - e
    g2 = 1.0 - e * (1.0 + x)
    g3 = 2.0 - e * (x * x + 2.0 * x + 2.0)
    ln_lam = np.log(lam_m)
    t[1:100, 0] = e
    t[1:100, 1] = e * lam * w
    t[1:100, 2] = e * w
    t[1:100, 3] = e * x * w
    t[1:100, 4] = e * x
    t[1:100, 5] = (g3 - g2 * ln_lam) / lam_m
    t[1:100, 6] = g2 / lam_m
    t[1:100, 7] = g2 - g1 * ln_lam
    t[1:100, 8] = g1
    t[0] = (1.0, 0.0, w, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    t[100] = (0.0, 0.0, 0.0, 0.0, 0.0,
              (2.0 - ln_cap) / cap, 1.0 / cap, 1.0 - ln_cap, 1.0)
    return t


def compute_mi_map(grid: OccupancyGrid, sensor: SensorConfig = SensorConfig(),
                   params: FcmiParams = FcmiParams()) -> MIMap:
    """Map-wide MI: every heading's line family swept once, H*W*rays visits.

    ``grid.sweep`` runs the lanes; each step applies, to every active
    lane, the ``_level_coeffs`` row of its heading and its cell's level as
    one affine update and emits the lanes' contributions.
    """
    # (9, headings*101), key heading*101 + level
    coeffs = np.concatenate([_level_coeffs(cell_width(float(a), grid.resolution), params)
                             for a in sensor.angles]).T.copy()
    k1 = 1.0 - params.log_lambda_cap
    dth = sensor.delta_theta

    def step(s, tt):
        # each word adds its terms in the order of its sum in _level_coeffs
        n = tt[0] * s
        n[0] += tt[1] * s[1]
        n[:2] += tt[2] * s[2:]
        n[0::2] += tt[3:5] * s[3]
        n += tt[5:]
        s[:] = n
        return (n[0] - k1 * n[1]) * dth

    mi_flat = sweep(grid.levels, sensor.ray_count, coeffs, step, _fold, np.float64)
    return MIMap(mi_flat.reshape(grid.shape))


def _fold(acc: np.ndarray, rows: np.ndarray) -> None:
    """Adds the (headings, H*W) contribution ``rows`` into ``acc`` in
    place, one heading after another: float sums depend on their order."""
    for part in rows:
        np.add(acc, part, out=acc)


def _level_entropy() -> np.ndarray:
    """Occupancy entropy in nats of each level 0..100 (0*log 0 taken as 0)."""
    o = np.arange(101) / 100.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -o * np.log(o) - (1.0 - o) * np.log(1.0 - o)
    h[[0, 100]] = 0.0
    return h


_LEVEL_ENTROPY = _level_entropy()


def map_entropy(grid: OccupancyGrid) -> float:
    """Total occupancy entropy of the grid in nats (0*log 0 taken as 0).

    Summed over the level histogram, so grids holding the same cells in
    any order give the same float, bit for bit."""
    return float(np.bincount(grid.levels.reshape(-1), minlength=101) @ _LEVEL_ENTROPY)
