"""Both MI engines over whole maps: bit-for-bit goldens of their outputs."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import mimap.fixedpoint as fx
from mimap import grid as grid_module
from mimap.datapath import compute_mi_map_fxp
from mimap.grid import OccupancyGrid, SensorConfig, SweepMemo, lane_blocks
from mimap.gridio import read_grid
from mimap.reference import compute_mi_map

GOLDEN_DIGESTS = Path(__file__).parent / "goldens" / "mi_digests.txt"
RANDOM_CASES = (  # (seed, shape, rays): full-range levels at 0.1 m
    (1, (3, 40), 13),
    (2, (17, 9), 7),
    (3, (1, 11), 1),
    (4, (11, 1), 5),
)


def random_grid(seed: int, shape: tuple[int, int],
                resolution: float = 0.1) -> OccupancyGrid:
    rng = np.random.default_rng(seed)
    return OccupancyGrid(rng.integers(0, 101, size=shape, dtype=np.uint8),
                         resolution)


def golden_cases(data_dir):
    yield "explore_a 60", read_grid(data_dir / "explore_a.grid"), 60
    for seed, shape, rays in RANDOM_CASES:
        yield (f"random{seed} {shape[0]}x{shape[1]} {rays}",
               random_grid(seed, shape), rays)


def golden_digests(data_dir) -> str:
    """One line per case and engine: the sha256 of the reference engine's
    float64 ``values`` and of the fixed-point engine's int32 ``raw`` words."""
    out = []
    for name, grid, rays in golden_cases(data_dir):
        sensor = SensorConfig(rays)
        ref = compute_mi_map(grid, sensor).values.tobytes()
        fxp = compute_mi_map_fxp(grid, sensor).raw.tobytes()
        out.append(f"{name} ref {hashlib.sha256(ref).hexdigest()}\n")
        out.append(f"{name} fxp {hashlib.sha256(fxp).hexdigest()}\n")
    return "".join(out)


def test_engine_outputs_match_golden(data_dir):
    # pins every bit: a reordered float sum or a moved saturation shows here
    assert golden_digests(data_dir) == GOLDEN_DIGESTS.read_text()


@pytest.mark.parametrize("shape,rays,resolution", [
    ((3, 40), 13, 0.1), ((17, 9), 7, 0.1), ((1, 11), 6, 0.1), ((11, 1), 5, 0.1),
    ((9, 13), 10, 1e9),  # widths this large saturate the datapath
])
def test_block_size_leaves_outputs_unchanged(monkeypatch, shape, rays, resolution):
    # one heading per block, three (with a shorter last block), all at once;
    # a memo's one block of every heading gives the words of each, cold and
    # warm after one edited cell
    grid = random_grid(5, shape, resolution)
    edited = grid.levels.copy()
    edited[0, 0] = (edited[0, 0] + 1) % 101
    edited = OccupancyGrid(edited, resolution)
    sensor = SensorConfig(rays)
    n_cells = shape[0] * shape[1]
    runs = []
    for per_block in (1, 3, rays):
        monkeypatch.setattr(grid_module, "LANE_BLOCK_CELLS", per_block * n_cells)
        assert len(list(lane_blocks(rays, shape))) == -(-rays // per_block)
        sat0 = fx.saturation_count()
        fxp = compute_mi_map_fxp(grid, sensor)
        assert fxp.saturations == fx.saturation_count() - sat0
        memo = SweepMemo()
        for each, cold in ((grid, fxp), (edited, compute_mi_map_fxp(edited, sensor))):
            got = compute_mi_map_fxp(each, sensor, memo=memo)
            assert got.raw.tobytes() == cold.raw.tobytes()
            assert got.saturations == cold.saturations
        runs.append((compute_mi_map(grid, sensor).values.tobytes(),
                     fxp.raw.tobytes(), fxp.saturations))
    assert runs[0] == runs[1] == runs[2]
    assert (runs[0][2] > 0) == (resolution == 1e9)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("resolution", [0.1, 1.0])
def test_fxp_map_within_accuracy_bound_on_full_range_maps(seed, resolution):
    # every level 0..100 in random places, at 60 rays: the normalized
    # fixed-point map stays within 0.05 of the float map
    grid = random_grid(seed, (40, 40), resolution)
    ref = compute_mi_map(grid, SensorConfig()).normalized()
    fxp = compute_mi_map_fxp(grid, SensorConfig())
    assert fxp.saturations == 0
    assert np.abs(fxp.normalized() - ref).max() < 0.05
