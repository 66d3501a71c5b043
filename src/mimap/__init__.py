"""Map-wide continuous mutual information for occupancy grids.

Four layers over one recursion: a float64 reference engine, a bit-faithful
Q20.12 datapath model, a cycle-level timing/energy model of the multi-core
accelerator, and an exploration harness that ties MI compute rates to how
fast a robot's map entropy falls.
"""

from .archsim import (ArchConfig, SimReport, bank_of, lower_bound_latency,
                      scaling_sweep, simulate)
from .datapath import (build_exp_knots, build_occ_lut, cap_words, compute_mi_map_fxp,
                       dump_tables)
from .explore import (Environment, PlatformProfile, PLATFORMS, TrialLog,
                      gbl_select, run_trial, simulate_scan, update_occupancy)
from .fixedpoint import encode
from .grid import (CellCoord, FcmiParams, LineFamily, MIMap, OccupancyGrid,
                   SensorConfig, SweepMemo, cell_width, line_family)
from .gridio import (GridFormatError, read_grid, read_mi_map, write_grid,
                     write_mi_map, write_pgm)
from .reference import compute_mi_map, map_entropy

__version__ = "0.1.0"

__all__ = [
    "ArchConfig", "CellCoord", "Environment", "FcmiParams",
    "GridFormatError", "LineFamily", "MIMap", "OccupancyGrid", "PLATFORMS",
    "PlatformProfile", "SensorConfig", "SimReport", "SweepMemo", "TrialLog",
    "bank_of", "build_exp_knots", "build_occ_lut", "cap_words", "cell_width",
    "compute_mi_map", "compute_mi_map_fxp", "dump_tables",
    "encode", "gbl_select", "line_family", "lower_bound_latency",
    "map_entropy", "read_grid", "read_mi_map", "run_trial", "scaling_sweep",
    "simulate", "simulate_scan", "update_occupancy", "write_grid",
    "write_mi_map", "write_pgm",
]
