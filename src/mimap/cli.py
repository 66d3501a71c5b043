"""Command-line front end: one subcommand per pipeline stage.

Exit codes: 0 success, 1 failed value assertion (``compare --assert-max``),
2 usage, parse, I/O or allocation errors.  Every subcommand writes
byte-stable output for fixed inputs and seed.
"""

import argparse
import math
import sys

import numpy as np

from .archsim import ArchConfig, parse_config, report_csv, scaling_sweep, simulate
from .datapath import compute_mi_map_fxp, dump_tables
from .explore import PLATFORMS, Environment, run_trial
from .grid import FcmiParams, MIMap, SensorConfig
from .gridio import read_grid, read_mi_map, write_mi_map, write_pgm
from .reference import compute_mi_map

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _sensor(args) -> SensorConfig:
    if args.rays < 4:
        raise ValueError(f"--rays must be at least 4, got {args.rays}")
    return SensorConfig(ray_count=args.rays)


def _config(args) -> ArchConfig:
    return parse_config(args.config) if args.config else ArchConfig()


def _warn_saturations(mi: MIMap) -> None:
    """One stderr line counting the clips of the call that made ``mi``."""
    if mi.saturations:
        print(f"warning: {mi.saturations} saturations", file=sys.stderr)


def _cmd_mi(args) -> int:
    grid = read_grid(args.grid)
    sensor = _sensor(args)
    if args.engine == "ref":
        mi = compute_mi_map(grid, sensor, FcmiParams())
    else:
        mi = compute_mi_map_fxp(grid, sensor, FcmiParams())
    _warn_saturations(mi)
    values = mi.normalized() if args.normalize else mi.values
    write_mi_map(MIMap(values), args.out)
    if args.pgm:
        write_pgm(values, args.pgm)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    grid = read_grid(args.grid)
    mi, report = simulate(grid, _sensor(args), FcmiParams(), _config(args),
                          compute_values=args.map is not None)
    if args.map is not None:
        _warn_saturations(mi)
        write_mi_map(mi, args.map)
    _emit(report_csv(report), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        cores = [int(tok) for tok in args.cores.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--cores expects a comma list of ints, got {args.cores!r}")
    if not cores:
        raise ValueError("--cores list is empty")
    grid = read_grid(args.grid)
    rows = scaling_sweep(grid, _sensor(args), FcmiParams(), cores, _config(args))
    lines = ["cores,latency_s,energy_j"]
    lines += [f"{n},{lat:.9e},{en:.9e}" for n, lat, en in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_explore(args) -> int:
    env = Environment.from_grid(read_grid(args.scene))
    if args.platform not in PLATFORMS:
        raise ValueError(f"unknown platform {args.platform!r}; "
                         f"choices: {', '.join(sorted(PLATFORMS))}")
    log = run_trial(env, _sensor(args), FcmiParams(), PLATFORMS[args.platform],
                    scan_rate_hz=args.scan_rate_hz, seed=args.seed,
                    max_steps=args.max_steps)
    _emit(log.to_csv(), args.out)
    return EXIT_OK


def _cmd_dump_tables(args) -> int:
    _emit(dump_tables(), args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    # no difference exceeds NaN, so a NaN bound would pass any two maps
    if args.assert_max is not None and not (math.isfinite(args.assert_max)
                                            and args.assert_max >= 0):
        raise ValueError("--assert-max must be finite and >= 0, "
                         f"got {args.assert_max}")
    a = read_mi_map(args.map_a)
    b = read_mi_map(args.map_b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {args.map_a} is "
                         f"{a.shape[0]}x{a.shape[1]}, {args.map_b} is "
                         f"{b.shape[0]}x{b.shape[1]}")
    diff = np.abs(a.normalized() - b.normalized())
    max_abs = float(diff.max())
    mean_abs = float(diff.mean())
    sys.stdout.write(f"max_abs_diff,{max_abs:.9e}\n"
                     f"mean_abs_diff,{mean_abs:.9e}\n")
    if args.assert_max is not None and max_abs > args.assert_max:
        print(f"assertion failed: max_abs_diff {max_abs:.9e} exceeds "
              f"{args.assert_max:.9e}", file=sys.stderr)
        return EXIT_ASSERT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimap",
        description="Map-wide mutual information: reference and fixed-point "
                    "engines, accelerator timing model, exploration trials.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_rays(p):
        p.add_argument("--rays", type=int, default=60,
                       help="sensor headings (default 60)")

    for name in ("mi-ref", "mi-fxp"):
        p = sub.add_parser(name, help=f"compute an MI map ({name[3:]} engine)")
        p.add_argument("--grid", required=True, help="occupancy grid file")
        add_rays(p)
        p.add_argument("--out", required=True, help="MI map output file")
        p.add_argument("--normalize", action="store_true",
                       help="min-max rescale values to [0, 1]")
        p.add_argument("--pgm", help="also write an 8-bit PGM heatmap")
        p.set_defaults(func=_cmd_mi, engine=name[3:])

    p = sub.add_parser("simulate", help="cycle-accurate accelerator run")
    p.add_argument("--grid", required=True)
    add_rays(p)
    p.add_argument("--config", help="arch config file (key = value lines)")
    p.add_argument("--out", help="report CSV (default stdout)")
    p.add_argument("--map", help="also write the simulated MI map")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="latency/energy across core counts")
    p.add_argument("--grid", required=True)
    add_rays(p)
    p.add_argument("--cores", default="1,2,4,8,16",
                   help="comma list of core counts (banks track cores)")
    p.add_argument("--config", help="base arch config file")
    p.add_argument("--out", help="CSV output (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("explore", help="one exploration trial")
    p.add_argument("--scene", required=True, help="ground-truth scene file")
    p.add_argument("--platform", default="fpga",
                   help="MI platform profile (fpga, gpu)")
    p.add_argument("--seed", type=int, default=0)
    add_rays(p)
    p.add_argument("--scan-rate-hz", type=float, default=30.0)
    p.add_argument("--max-steps", type=int, default=3000)
    p.add_argument("--out", help="trial CSV (default stdout)")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("dump-tables", help="occupancy LUT and exp knot dump")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_dump_tables)

    p = sub.add_parser("compare", help="normalized difference of two MI maps")
    p.add_argument("map_a")
    p.add_argument("map_b")
    p.add_argument("--assert-max", type=float,
                   help="exit 1 if max_abs_diff exceeds this")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
