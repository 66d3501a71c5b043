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

o = 0 and o = 1 take the closed-form limits of the same update (see
``step_expectations``).  The per-cell MI contribution is
(a1' - (1 - log cap)*b1') * delta_theta; the angular factor is applied
exactly once, here.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (FcmiParams, LineScan, MIMap, OccupancyGrid, SensorConfig,
                   cell_width, line_family)

__all__ = [
    "ExpectationState", "CellParams", "EntropyPair", "ZERO_STATE",
    "gamma_lower", "step_expectations", "entropy_pair", "scan_line",
    "compute_mi_map", "map_entropy",
]


class ExpectationState(NamedTuple):
    a1: float
    b1: float
    a0: float
    b0: float


class EntropyPair(NamedTuple):
    h: float
    h_cond: float


ZERO_STATE = ExpectationState(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class CellParams:
    """Per-cell recursion inputs; ``degenerate`` marks the o=0 / o=1 limits."""

    lam: float
    lam_m: float
    width: float
    degenerate: str | None = None  # None | "free" | "occupied"

    @classmethod
    def from_probability(cls, o: float, width: float,
                         params: FcmiParams = FcmiParams()) -> "CellParams":
        if not 0.0 <= o <= 1.0:
            raise ValueError(f"occupancy {o} outside [0, 1]")
        if o == 0.0:
            return cls(0.0, 0.0, width, "free")
        if o == 1.0:
            return cls(math.inf, params.lambda_cap, width, "occupied")
        lam = -math.log1p(-o)
        return cls(lam, min(lam, params.lambda_cap), width)

    @classmethod
    def from_level(cls, level: int, width: float,
                   params: FcmiParams = FcmiParams()) -> "CellParams":
        return cls.from_probability(level / 100.0, width, params)


def gamma_lower(s: int, x: float) -> float:
    """Lower incomplete gamma for s in {1, 2, 3} via the closed forms."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    e = math.exp(-x)
    if s == 1:
        return 1.0 - e
    if s == 2:
        return 1.0 - e * (1.0 + x)
    if s == 3:
        return 2.0 - e * (x * x + 2.0 * x + 2.0)
    raise ValueError(f"s must be 1, 2, or 3, got {s}")


def step_expectations(prev: ExpectationState, cell: CellParams,
                      params: FcmiParams = FcmiParams()) -> ExpectationState:
    """Absorb one cell into the running expectations (one recursion step)."""
    a1, b1, a0, b0 = prev
    w = cell.width
    if cell.degenerate == "free":
        # lam -> 0: E -> 1 and every gamma term vanishes
        return ExpectationState(a1 + w * a0, b1 + w * b0, a0, b0)
    if cell.degenerate == "occupied":
        # lam_m = cap: exp(-cap*w) underflows to zero for any w >= 1e-5 m,
        # so the previous state is erased and only the gamma terms remain
        cap = params.lambda_cap
        ln_cap = params.log_lambda_cap
        return ExpectationState((2.0 - ln_cap) / cap, 1.0 / cap, 1.0 - ln_cap, 1.0)
    lam = cell.lam
    lam_m = cell.lam_m
    x = lam_m * w
    e = math.exp(-x)
    g1 = 1.0 - e
    g2 = 1.0 - e * (1.0 + x)
    g3 = 2.0 - e * (x * x + 2.0 * x + 2.0)
    ln_lam = math.log(lam_m)
    na1 = e * ((a1 + lam * w * b1) + w * (a0 + x * b0)) + (g3 - g2 * ln_lam) / lam_m
    nb1 = e * (b1 + w * b0) + g2 / lam_m
    na0 = e * (a0 + x * b0) + g2 - g1 * ln_lam
    nb0 = e * b0 + g1
    return ExpectationState(na1, nb1, na0, nb0)


def entropy_pair(state: ExpectationState, sensor: SensorConfig,
                 params: FcmiParams = FcmiParams()) -> EntropyPair:
    """Beam entropy and conditional entropy approximated from the state."""
    dth = sensor.delta_theta
    return EntropyPair(state.a1 * dth,
                       (1.0 - params.log_lambda_cap) * state.b1 * dth)


def scan_line(line: LineScan, grid: OccupancyGrid, sensor: SensorConfig,
              params: FcmiParams, mi: MIMap) -> MIMap:
    """Sweep one scan line, adding each cell's beam MI into the accumulator.

    ``line.cells`` must be in scan order (anti-beam); the state starts at
    zero because no information lies beyond the map boundary.
    """
    w = cell_width(line.angle, grid.resolution)
    state = ZERO_STATE
    for r, c in line.cells:
        cell = CellParams.from_level(int(grid.levels[r, c]), w, params)
        state = step_expectations(state, cell, params)
        h, h_cond = entropy_pair(state, sensor, params)
        mi.values[r, c] += h - h_cond
    return mi


def _level_coeffs(w: float, params: FcmiParams) -> np.ndarray:
    """Per-level affine step coefficients for one heading.

    Row layout: [E, E*lam*w, E*w, E*x*w, E*x, C1, C2, C3, C4] so that

        a1' = T0*a1 + T1*b1 + T2*a0 + T3*b0 + T5
        b1' = T0*b1 + T2*b0 + T6
        a0' = T0*a0 + T4*b0 + T7
        b0' = T0*b0 + T8

    matches one recursion step for a cell of that level.  Levels 0 and 100
    get the closed-form limit rows.
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

    Vectorized across the lines of each family; per-cell arithmetic follows
    ``step_expectations`` exactly (same lam via log1p, same gamma forms),
    with the multiply grouping of ``_level_coeffs``.
    """
    height, width = grid.shape
    levels_flat = grid.levels.reshape(-1).astype(np.int64)
    mi_flat = np.zeros(height * width)
    k1 = 1.0 - params.log_lambda_cap
    dth = sensor.delta_theta
    for angle in sensor.angles:
        fam = line_family(float(angle), (height, width))
        w = cell_width(float(angle), grid.resolution)
        coeffs = _level_coeffs(w, params)
        idx, active = fam.lanes()
        n_lines = idx.shape[1]
        a1 = np.zeros(n_lines)
        b1 = np.zeros(n_lines)
        a0 = np.zeros(n_lines)
        b0 = np.zeros(n_lines)
        for t in range(idx.shape[0]):
            na = int(active[t])
            ix = idx[t, :na]
            tt = coeffs[levels_flat[ix]]
            pa1, pb1, pa0, pb0 = a1[:na], b1[:na], a0[:na], b0[:na]
            n_a1 = tt[:, 0] * pa1 + tt[:, 1] * pb1 + tt[:, 2] * pa0 + tt[:, 3] * pb0 + tt[:, 5]
            n_b1 = tt[:, 0] * pb1 + tt[:, 2] * pb0 + tt[:, 6]
            n_a0 = tt[:, 0] * pa0 + tt[:, 4] * pb0 + tt[:, 7]
            n_b0 = tt[:, 0] * pb0 + tt[:, 8]
            a1[:na], b1[:na], a0[:na], b0[:na] = n_a1, n_b1, n_a0, n_b0
            mi_flat[ix] += (n_a1 - k1 * n_b1) * dth
    return MIMap(mi_flat.reshape(height, width), grid.resolution)


def map_entropy(grid: OccupancyGrid) -> float:
    """Total occupancy entropy of the grid in nats (0*log 0 taken as 0)."""
    o = grid.probabilities()
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -o * np.log(o) - (1.0 - o) * np.log(1.0 - o)
    h[~np.isfinite(h)] = 0.0
    return float(h.sum())
