"""Exploration trials at the paper's map size, 201x201.

Runs one fpga trial, seed 3, 60 rays, on each of ``make_data``'s three
201x201 layouts (``office_201``, ``comb_201``, ``hall_201``) at its
0.1 m resolution, and prints one CSV line a layout,
``layout,steps,path_cells,wall_s,sha256``: the trial's scan count, its
path length in cells, the trial's wall time, and the sha256 of its
trial CSV.  The last line is the process's peak resident set size
(``ru_maxrss``) in MB.  Two trees that give the same trials print the
same digests.  The three trials take a few seconds each.

Run from anywhere in the repository:  python3 scripts/paper_trials.py
"""

import hashlib
import pathlib
import resource
import sys
import time

SCRIPTS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SCRIPTS.parent / "src"))
sys.path.insert(0, str(SCRIPTS))

from make_data import RES, comb_201, hall_201, office_201  # noqa: E402
from mimap.explore import PLATFORMS, Environment, run_trial  # noqa: E402

LAYOUTS = {"office_201": office_201, "comb_201": comb_201, "hall_201": hall_201}


def main() -> None:
    print("layout,steps,path_cells,wall_s,sha256")
    for name, layout in LAYOUTS.items():
        env = Environment(layout(), RES)
        t0 = time.perf_counter()
        log = run_trial(env, platform=PLATFORMS["fpga"], seed=3)
        wall = time.perf_counter() - t0
        digest = hashlib.sha256(log.to_csv().encode()).hexdigest()
        print(f"{name},{len(log.rows)},{log.rows[-1].trajectory_cells},"
              f"{wall:.3f},{digest}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"ru_maxrss_mb,{peak_mb:.1f}")


if __name__ == "__main__":
    main()
