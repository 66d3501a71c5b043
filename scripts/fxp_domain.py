"""The Q20.12 engine on one map across its domain's edge.

Computes the fixed-point MI map of ``explore_a`` (201x201), 60 rays, at
0.1, 0.3, 1, 3, 10, 30 and 100 m a cell, and prints one CSV line a
resolution, ``resolution,in_domain,saturations,wall_s,sha256``:
whether the call's sweep ran without a single ``fixedpoint.arr_clip``
call (so every step skipped the clip), the call's saturation count, the
median wall time of 5 calls without a memo, and the sha256 of its
``raw`` words.  Two trees whose engines agree print the same digests and
counts.  It takes a few seconds.

Run from anywhere in the repository:  python3 scripts/fxp_domain.py
"""

import hashlib
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mimap.datapath as datapath  # noqa: E402
import mimap.fixedpoint as fx  # noqa: E402
from mimap.grid import OccupancyGrid, SensorConfig  # noqa: E402
from mimap.gridio import read_grid  # noqa: E402

RESOLUTIONS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)
CALLS = 5


def sweep_clips(grid: OccupancyGrid, sensor: SensorConfig) -> int:
    """``fx.arr_clip`` calls made while the sweep of one
    ``compute_mi_map_fxp`` call runs; preprocess and encodes are not
    counted."""
    clip, sweep = fx.arr_clip, datapath.sweep
    calls, sweeping = [0], [False]

    def counted(q):
        calls[0] += sweeping[0]
        return clip(q)

    def watched(*args):
        sweeping[0] = True
        try:
            return sweep(*args)
        finally:
            sweeping[0] = False

    fx.arr_clip, datapath.sweep = counted, watched
    try:
        datapath.compute_mi_map_fxp(grid, sensor)
    finally:
        fx.arr_clip, datapath.sweep = clip, sweep
    return calls[0]


def main() -> None:
    levels = read_grid(ROOT / "src" / "mimap" / "data" / "explore_a.grid").levels
    sensor = SensorConfig(60)
    print("resolution,in_domain,saturations,wall_s,sha256")
    for resolution in RESOLUTIONS:
        grid = OccupancyGrid(levels, resolution)
        in_domain = sweep_clips(grid, sensor) == 0
        walls = []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            mi = datapath.compute_mi_map_fxp(grid, sensor)
            walls.append(time.perf_counter() - t0)
        digest = hashlib.sha256(mi.raw.tobytes()).hexdigest()
        print(f"{resolution},{in_domain},{mi.saturations},"
              f"{statistics.median(walls):.4f},{digest}")


if __name__ == "__main__":
    main()
