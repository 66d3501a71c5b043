"""Cycle-model reports at the benchmark's and the paper's map sizes.

Runs ``archsim.simulate`` with ``compute_values=False`` and 60 rays on
``scene_a`` (57x57) and ``explore_a`` (201x201), each under five configs:
the default, depth 1 (no interleaving), no wrapping, no banking (one
bank) and one core with one bank.  It prints one CSV line a run,
``shape,config,total_cycles,bank_conflict,feedback_wait,drain,wall_s,sha256``:
the report's cycles and stall split, the wall time of the ``simulate``
call, and the sha256 of its ``report_csv`` text, its ``per_core_stalls``
and its per-bank ``occ_reads``.  Two trees whose cycle models agree
print the same digests.  The 201x201 no-banking run takes the longest,
about half a minute.

Run from anywhere in the repository:  python3 scripts/sim_reports.py
"""

import hashlib
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mimap.archsim import ArchConfig, report_csv, simulate  # noqa: E402
from mimap.grid import SensorConfig  # noqa: E402
from mimap.gridio import read_grid  # noqa: E402

DATA = ROOT / "src" / "mimap" / "data"
INPUTS = ("scene_a", "explore_a")
CONFIGS = (("default", ArchConfig()),
           ("depth1", ArchConfig(interleaving=False)),
           ("no-wrap", ArchConfig(wrapping=False)),
           ("no-bank", ArchConfig(n_banks=1)),
           ("one-core", ArchConfig(n_cores=1, n_banks=1)))


def digest(report) -> str:
    """sha256 of the report's CSV text, per-core stalls and bank reads."""
    reads = " ".join(str(int(v)) for v in report.memory_accesses["occ_reads"])
    text = f"{report_csv(report)}{report.per_core_stalls}\n{reads}\n"
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    print("shape,config,total_cycles,bank_conflict,feedback_wait,drain,wall_s,sha256")
    sensor = SensorConfig(60)
    for name in INPUTS:
        grid = read_grid(DATA / f"{name}.grid")
        shape = "x".join(map(str, grid.shape))
        for key, config in CONFIGS:
            t0 = time.perf_counter()
            _, rep = simulate(grid, sensor, config=config, compute_values=False)
            wall = time.perf_counter() - t0
            stalls = ",".join(str(rep.stall_cycles[cause]) for cause in
                              ("bank_conflict", "feedback_wait", "drain"))
            print(f"{shape},{key},{rep.total_cycles},{stalls},{wall:.3f},{digest(rep)}",
                  flush=True)


if __name__ == "__main__":
    main()
