"""Cycle-level accelerator model: schedule, timing rules, reports."""

import itertools
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mimap.archsim import (
    CLOCK_HZ,
    CONTEXTS_PER_SLOT,
    E_CORE_CYCLE,
    E_MEM_ACCESS,
    E_STALL_CYCLE,
    E_STATIC_PER_S,
    ArchConfig,
    FEEDBACK_DEPTH,
    MAX_MAP,
    MI_QUEUE_DEPTH,
    PIPELINE_STAGES,
    bank_of,
    energy_of,
    lower_bound_latency,
    parse_config,
    report_csv,
    scaling_sweep,
    simulate,
    _flat_schedule,
    _issue_counts,
    _sim_kernel,
)
from mimap.datapath import compute_mi_map_fxp
from mimap.grid import CellCoord, FcmiParams, OccupancyGrid, SensorConfig, line_family
from mimap.gridio import read_grid

PARAMS = FcmiParams()


def small_grid(rng, size=33):
    return OccupancyGrid(rng.integers(0, 101, size=(size, size), dtype=np.uint8), 0.1)


# ---------------------------------------------------------------- lower bound


def test_lower_bound_reference_values():
    lb = lower_bound_latency((201, 201), 60, 16)
    assert lb == 201 * 201 * 60 / (16 * 1e8)
    assert f"{lb * 1e3:.5f}" == "1.51504"
    assert lower_bound_latency((256, 256), 60, 16) == 2.4576e-3
    one = lower_bound_latency((128, 128), 60, 1)
    sixteen = lower_bound_latency((128, 128), 60, 16)
    assert one / sixteen == 16.0


def test_lower_bound_rejects_non_positive_arguments():
    for shape, rays, cores in (((0, 3), 4, 1), ((3, 0), 4, 1), ((3, 3), 0, 1),
                               ((3, 3), 4, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            lower_bound_latency(shape, rays, cores)


def test_lower_bound_counts_every_cell_of_a_non_square_grid():
    _, rep = simulate(OccupancyGrid.uniform((3, 40)), SensorConfig(60), PARAMS,
                      ArchConfig(), compute_values=False)
    assert rep.lower_bound_s == lower_bound_latency((3, 40), 60, 16) == 4.5e-6


# ---------------------------------------------------------------- banking


def test_bank_of_examples():
    assert bank_of(CellCoord(0, 0), 16) == 0
    assert bank_of(CellCoord(3, 5), 4) == 0
    assert bank_of(CellCoord(2, 5), 16) == 7


def test_bank_of_consecutive_cells_hit_distinct_banks():
    # diagonal layout: any 16 consecutive cells along a row or column
    for r in range(64):
        for c0 in range(0, 48, 7):
            banks = {bank_of(CellCoord(r, c0 + k), 16) for k in range(16)}
            assert len(banks) == 16
    for c in range(64):
        for r0 in range(0, 48, 7):
            banks = {bank_of(CellCoord(r0 + k, c), 16) for k in range(16)}
            assert len(banks) == 16


# ---------------------------------------------------------------- pipeline/energy


def test_pipeline_spec_sections():
    # 19 stages: preprocess 1-10, feedback 11-18, postprocess 19
    assert (PIPELINE_STAGES, FEEDBACK_DEPTH) == (19, 8)
    one_core = ArchConfig(n_cores=1)
    _, rep = simulate(OccupancyGrid.uniform((1, 1)), SensorConfig(1), PARAMS,
                      one_core, compute_values=False)
    assert rep.total_cycles == PIPELINE_STAGES + 1
    # one ray alone: each cell waits out the feedback section of the last
    _, rep = simulate(OccupancyGrid.uniform((1, 5)), SensorConfig(1), PARAMS,
                      one_core, compute_values=False)
    assert rep.total_cycles == 4 * FEEDBACK_DEPTH + PIPELINE_STAGES + 1
    assert rep.stall_cycles["feedback_wait"] == 4 * (FEEDBACK_DEPTH - 1)


def test_energy_of_closed_form():
    assert energy_of(0, 0, 0, 0.0) == 0.0
    assert energy_of(1, 0, 0, 0.0) == E_CORE_CYCLE
    assert energy_of(0, 1, 0, 0.0) == E_STALL_CYCLE
    assert energy_of(0, 0, 1, 0.0) == E_MEM_ACCESS
    assert energy_of(0, 0, 0, 1.0) == E_STATIC_PER_S
    assert energy_of(2, 3, 5, 7.0) == (2 * E_CORE_CYCLE + 3 * E_STALL_CYCLE
                                       + 5 * E_MEM_ACCESS + 7.0 * E_STATIC_PER_S)
    # the calibration: a stall cycle costs a quarter of an active one, and
    # static power is 10% of 1.7e-3 J over the 153 086-cycle reference run
    assert E_STALL_CYCLE == E_CORE_CYCLE / 4
    assert energy_of(0, 0, 0, 153_086 / CLOCK_HZ) == pytest.approx(1.7e-4, rel=1e-9)


# ---------------------------------------------------------------- schedule


def dealt_units(bounds, sensor, config):
    """Per-core dealt units of the kernel schedule as (heading index, flat
    cells) pairs; a unit (lo, hi) spans cells lo:hi of the headings'
    concatenated line-family cells, H*W of them per heading."""
    _, _, queues = _flat_schedule(bounds, sensor, config)
    cells = np.concatenate([line_family(float(a), bounds).cells
                            for a in sensor.angles])
    hw = bounds[0] * bounds[1]
    return [[(lo // hw, cells[lo:hi]) for lo, hi in queue] for queue in queues]


@pytest.mark.parametrize("bounds", [(17, 17), (1, 17), (13, 1), (9, 14)])
def test_schedule_units_tile_each_heading_once(bounds):
    # the units of heading k cover its positions [k*hw, (k+1)*hw) once,
    # and a line starts at every unit's first position
    sensor = SensorConfig(13)
    hw = bounds[0] * bounds[1]
    for wrapping in (True, False):
        cfg = replace(ArchConfig(), wrapping=wrapping)
        banks, line_starts, queues = _flat_schedule(bounds, sensor, cfg)
        assert len(banks) == sensor.ray_count * hw
        assert len(line_starts) == len(banks) + 1 and line_starts[-1] == 1
        units = sorted(unit for queue in queues for unit in queue)
        for k in range(sensor.ray_count):
            mine = [(lo, hi) for lo, hi in units if k * hw <= lo < (k + 1) * hw]
            assert mine[0][0] == k * hw and mine[-1][1] == (k + 1) * hw
            assert all(hi == lo2 for (_, hi), (lo2, _) in zip(mine, mine[1:]))
            assert all(lo < hi and line_starts[lo] for lo, hi in mine)


def test_schedule_axis_family_is_balanced():
    for wrapping in (True, False):
        cfg = replace(ArchConfig(), wrapping=wrapping)
        per_core = dealt_units((32, 32), SensorConfig(1), cfg)
        units = [cells for q in per_core for _, cells in q]
        assert len(units) == 32
        assert all(len(cells) == 32 for cells in units)
        totals = [sum(len(cells) for _, cells in q) for q in per_core]
        assert max(totals) == min(totals) == 64


def test_schedule_covers_every_cell_once_per_heading():
    sensor = SensorConfig(8)
    for wrapping in (True, False):
        cfg = replace(ArchConfig(), wrapping=wrapping)
        per_core = dealt_units((17, 17), sensor, cfg)
        for heading in range(sensor.ray_count):
            seen = np.zeros(17 * 17, dtype=int)
            for q in per_core:
                for a, cells in q:
                    if a == heading:
                        seen[cells] += 1
            assert seen.min() == 1 and seen.max() == 1


def test_schedule_wrapped_oblique_units_equalize():
    oblique = 1  # the 45 degree diagonal family of 8 headings
    per_core = dealt_units((33, 33), SensorConfig(8), ArchConfig())
    totals = [sum(len(cells) for a, cells in q if a == oblique) for q in per_core]
    units = [cells for q in per_core for a, cells in q if a == oblique]
    assert all(len(cells) == 33 for cells in units)  # every chain is whole
    assert max(totals) - min(totals) <= 33  # at most one unit apart


def test_schedule_unwrapped_oblique_is_imbalanced():
    cfg = replace(ArchConfig(), wrapping=False)
    oblique = 1
    per_core = dealt_units((33, 33), SensorConfig(8), cfg)
    totals = [sum(len(cells) for a, cells in q if a == oblique) for q in per_core]
    assert max(totals) / min(totals) > 1.0  # corner chords are short


# ---------------------------------------------------------------- simulate


def test_simulate_rejects_oversized_grid():
    assert MAX_MAP == 512
    _, rep = simulate(OccupancyGrid.uniform((1, MAX_MAP)), SensorConfig(1), PARAMS,
                      ArchConfig(), compute_values=False)
    assert rep.busy_cycles() == MAX_MAP
    with pytest.raises(ValueError, match="grid 1x513 exceeds capacity 512"):
        simulate(OccupancyGrid.uniform((1, MAX_MAP + 1)), SensorConfig(4), PARAMS,
                 ArchConfig())


def test_work_conservation_and_bound(rng):
    grid = small_grid(rng)
    for cfg in (
        ArchConfig(),
        replace(ArchConfig(), wrapping=False),
        replace(ArchConfig(), interleaving=False),
        replace(ArchConfig(), n_banks=1),
        replace(ArchConfig(), n_cores=4, n_banks=4),
    ):
        _, rep = simulate(grid, SensorConfig(60), PARAMS, cfg, compute_values=False)
        assert rep.busy_cycles() == 33 * 33 * 60
        assert rep.latency_s >= rep.lower_bound_s
        assert rep.total_cycles == round(rep.latency_s * cfg.clock_hz)


def test_mi_map_identical_across_timing_features(rng):
    # timing features change cycles, never values
    grid = small_grid(rng, 21)
    sensor = SensorConfig(8)
    want = compute_mi_map_fxp(grid, sensor, PARAMS)
    for n_banks, interleaving, wrapping in itertools.product((None, 1), (True, False),
                                                             (True, False)):
        cfg = replace(ArchConfig(), n_banks=n_banks, interleaving=interleaving,
                      wrapping=wrapping)
        mi, _ = simulate(grid, sensor, PARAMS, cfg)
        np.testing.assert_array_equal(mi.raw, want.raw)
        np.testing.assert_array_equal(mi.values, want.values)


def test_single_requester_never_conflicts(rng):
    _, rep = simulate(small_grid(rng), SensorConfig(60), PARAMS,
                      replace(ArchConfig(), n_cores=1, n_banks=1),
                      compute_values=False)
    assert rep.stall_cycles["bank_conflict"] == 0


def test_same_heading_streaming_is_conflict_free(rng):
    # B = n = 16, one angle family: the diagonal layout keeps concurrent
    # accesses on distinct banks
    for size in (16, 32, 33):
        _, rep = simulate(small_grid(rng, size), SensorConfig(1), PARAMS,
                          ArchConfig(), compute_values=False)
        assert rep.stall_cycles["bank_conflict"] == 0


def test_interleave_depth_sensitivity(rng):
    grid = small_grid(rng)
    _, deep = simulate(grid, SensorConfig(60), PARAMS, ArchConfig(),
                       compute_values=False)
    _, shallow = simulate(grid, SensorConfig(60), PARAMS,
                          replace(ArchConfig(), interleaving=False),
                          compute_values=False)
    cells = 33 * 33 * 60
    # D=1 pays the full feedback spacing: 7 blocked cycles per steady cell
    assert 6.5 * cells <= shallow.stall_cycles["feedback_wait"] <= 7.0 * cells
    # D=8 hides nearly all of it (residue comes from heading-tail windows)
    assert deep.stall_cycles["feedback_wait"] * 50 < shallow.stall_cycles["feedback_wait"]
    assert shallow.total_cycles > 4 * deep.total_cycles


GOLDEN_REPORTS = Path(__file__).parent / "goldens" / "archsim_reports.txt"
GOLDEN_CONFIGS = (("default", ArchConfig()),
                  ("no-wrap", replace(ArchConfig(), wrapping=False)),
                  ("depth1", replace(ArchConfig(), interleaving=False)),
                  ("no-bank", replace(ArchConfig(), n_banks=1)))
GOLDEN_CYCLES = {  # (shape, rays) -> total_cycles per GOLDEN_CONFIGS entry
    ((21, 21), 8): (365, 365, 1839, 3562),
    ((3, 40), 60): (780, 734, 3846, 7394),
}


def check_per_core_stalls(rep, cfg):
    """The per-core stall triples sum to the report's stall counts, and
    each core issues or stalls on every cycle up to the last issue."""
    assert len(rep.per_core_stalls) == cfg.n_cores
    sums = [sum(column) for column in zip(*rep.per_core_stalls)]
    assert sums == list(rep.stall_cycles.values())
    spans = {round(busy * rep.total_cycles) + sum(stalls)
             for busy, stalls in zip(rep.per_core_busy, rep.per_core_stalls)}
    assert len(spans) == 1 and spans.pop() <= rep.total_cycles - PIPELINE_STAGES


def golden_reports() -> str:
    """Every golden case as a '== HxW rays config' header, the full
    report_csv text and the per-bank occupancy reads."""
    out = []
    for (shape, rays), cycles in GOLDEN_CYCLES.items():
        for (name, cfg), want in zip(GOLDEN_CONFIGS, cycles):
            _, rep = simulate(OccupancyGrid.uniform(shape), SensorConfig(rays),
                              PARAMS, cfg, compute_values=False)
            assert rep.total_cycles == want, (shape, rays, name)
            check_per_core_stalls(rep, cfg)
            reads = " ".join(str(int(v)) for v in rep.memory_accesses["occ_reads"])
            out.append(f"== {shape[0]}x{shape[1]} {rays} {name}\n"
                       f"{report_csv(rep)}occ_reads,{reads}\n")
    return "".join(out)


def test_reports_match_golden():
    # pins the cycle model, not only its run-to-run determinism; the
    # per-core stalls are checked against the golden stall counts
    assert golden_reports() == GOLDEN_REPORTS.read_text()


# the sim_cycle benchmark workload: scene_a (57x57), 60 rays; per config
# the total cycles, the stall split and one (bank_conflict, feedback_wait,
# drain) triple per core.  Bank reads are fixed by the schedule, the same
# on both
SIM_CYCLE_REPORTS = {
    "default": (ArchConfig(), 13_939, (8_500, 2_270, 17_010), [
        (0, 112, 1610), (1, 112, 1609), (7, 112, 1603), (26, 111, 1585),
        (108, 119, 1495), (66, 110, 1546), (251, 122, 1349), (336, 121, 1265),
        (388, 119, 1215), (570, 128, 1024), (673, 169, 880), (852, 142, 728),
        (1097, 143, 539), (1305, 168, 306), (1250, 273, 256), (1570, 209, 0)]),
    "depth1": (ArchConfig(interleaving=False), 97_075, (58, 1_352_416, 5_482), [
        (0, 84824, 34), (0, 84496, 362), (1, 84656, 201), (2, 84640, 216),
        (2, 84504, 352), (4, 84792, 62), (3, 84416, 439), (2, 84856, 0),
        (3, 84464, 391), (5, 84728, 125), (5, 84560, 293), (5, 84584, 269),
        (6, 84312, 597), (6, 84088, 821), (7, 84472, 436), (7, 84024, 884)]),
}
SIM_CYCLE_OCC_READS = [12000, 12000, 12060, 12120, 12180, 12240, 12300, 12360,
                       12420, 12360, 12300, 12240, 12180, 12120, 12060, 12000]


@pytest.mark.parametrize("key", SIM_CYCLE_REPORTS)
def test_sim_cycle_workload_reports(data_dir, key):
    config, cycles, stalls, per_core = SIM_CYCLE_REPORTS[key]
    _, rep = simulate(read_grid(data_dir / "scene_a.grid"), SensorConfig(60), PARAMS,
                      config, compute_values=False)
    assert rep.total_cycles == cycles
    assert tuple(rep.stall_cycles.values()) == stalls
    assert rep.per_core_stalls == per_core
    assert rep.memory_accesses["occ_reads"].tolist() == SIM_CYCLE_OCC_READS
    check_per_core_stalls(rep, config)


@settings(max_examples=120)
@given(height=st.integers(1, 12), width=st.integers(1, 12), rays=st.integers(1, 13),
       n_cores=st.integers(1, 5), n_banks=st.integers(1, 6),
       interleave_depth=st.integers(1, 8), wrapping=st.booleans())
# a core refills while the first live context in its slot order sits,
# not yet issued, at its heading's first position
@example(height=4, width=5, rays=10, n_cores=4, n_banks=2, interleave_depth=2,
         wrapping=False)
@example(height=8, width=10, rays=11, n_cores=3, n_banks=2, interleave_depth=4,
         wrapping=True)
def test_kernel_matches_per_cycle_oracle(height, width, rays, n_cores, n_banks,
                                         interleave_depth, wrapping):
    # simulate passes depth 8 (interleaving on) or 1 (off); the kernel
    # is checked at every depth in between as well
    config = ArchConfig(n_cores=n_cores, n_banks=n_banks, wrapping=wrapping)
    window = CONTEXTS_PER_SLOT * interleave_depth if interleave_depth > 1 else 1
    chain_pen = FEEDBACK_DEPTH if interleave_depth == 1 else 0
    banks, line_starts, queues = _flat_schedule((height, width), SensorConfig(rays),
                                                config)
    hw = height * width
    got = _sim_kernel(banks, line_starts, queues, hw, config.eff_banks, window)
    # the oracle walks segments: the flagged positions, each unit given as
    # its heading and the segments of its first and end positions
    seg_start = [p for p, flag in enumerate(line_starts) if flag]
    seg_of = {p: i for i, p in enumerate(seg_start)}
    seg_queues = [[(lo // hw, seg_of[lo], seg_of[hi]) for lo, hi in queue]
                  for queue in queues]
    last, backlog, busy, per_bank, stalls = oracles.oracle_sim_kernel(
        banks, seg_start, seg_queues, config.eff_banks, window, FEEDBACK_DEPTH,
        chain_pen, MI_QUEUE_DEPTH)
    assert got == (last, backlog, stalls)
    # the issues per core and per bank that the oracle counts cycle by
    # cycle follow from the schedule alone
    got_busy, got_per_bank = _issue_counts(banks, queues, hw, config.eff_banks)
    assert got_busy == busy and got_per_bank.tolist() == per_bank


def degenerate_shapes():
    """1xN, Nx1 and non-square grids up to 40 cells a side."""
    side = st.integers(1, 40)
    return st.one_of(side.map(lambda n: (1, n)), side.map(lambda n: (n, 1)),
                     st.tuples(side, side).filter(lambda hw: hw[0] != hw[1]))


@settings(max_examples=60)
@given(shape=degenerate_shapes(), rays=st.integers(1, 15).filter(lambda r: r % 4),
       n_cores=st.integers(1, 16), n_banks=st.one_of(st.none(), st.integers(1, 17)),
       wrapping=st.booleans(), interleaving=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(shape=(40, 39), rays=15, n_cores=1, n_banks=None, wrapping=True,
         interleaving=False, seed=0)
@example(shape=(1, 40), rays=13, n_cores=16, n_banks=1, wrapping=False,
         interleaving=True, seed=1)
@example(shape=(40, 1), rays=3, n_cores=5, n_banks=3, wrapping=True,
         interleaving=True, seed=2)
def test_cycle_model_on_degenerate_shapes(shape, rays, n_cores, n_banks, wrapping,
                                          interleaving, seed):
    levels = np.random.default_rng(seed).integers(0, 101, size=shape, dtype=np.uint8)
    grid = OccupancyGrid(levels, 0.1)
    sensor = SensorConfig(rays)
    cfg = ArchConfig(n_cores=n_cores, n_banks=n_banks, wrapping=wrapping,
                     interleaving=interleaving)
    mi, rep = simulate(grid, sensor, PARAMS, cfg)
    assert rep.busy_cycles() == shape[0] * shape[1] * rays
    assert rep.latency_s >= rep.lower_bound_s
    assert rep.total_cycles == round(rep.latency_s * cfg.clock_hz)
    check_per_core_stalls(rep, cfg)
    np.testing.assert_array_equal(mi.raw, compute_mi_map_fxp(grid, sensor, PARAMS).raw)


def test_simulate_is_deterministic(rng):
    grid = small_grid(rng)
    _, a = simulate(grid, SensorConfig(60), PARAMS, ArchConfig(), compute_values=False)
    _, b = simulate(grid, SensorConfig(60), PARAMS, ArchConfig(), compute_values=False)
    assert a.total_cycles == b.total_cycles
    assert a.stall_cycles == b.stall_cycles
    assert a.per_core_busy == b.per_core_busy
    assert a.energy_j == b.energy_j
    assert report_csv(a) == report_csv(b)


# ---------------------------------------------------------------- sweep/report


def test_scaling_sweep_structure(rng):
    grid = small_grid(rng)
    rows = scaling_sweep(grid, SensorConfig(60), PARAMS, [1, 2, 4, 8, 16])
    assert [n for n, _, _ in rows] == [1, 2, 4, 8, 16]
    lats = [lat for _, lat, _ in rows]
    assert all(a > b for a, b in zip(lats, lats[1:]))  # more cores, faster
    for n, lat, energy in rows:
        assert lat >= lower_bound_latency((33, 33), 60, n)
        assert energy > 0.0


def test_report_csv_fields(rng):
    _, rep = simulate(small_grid(rng, 17), SensorConfig(8), PARAMS, ArchConfig(),
                      compute_values=False)
    lines = report_csv(rep).strip().splitlines()
    assert lines[0] == "metric,value"
    metrics = dict(line.split(",") for line in lines[1:])
    expected = {"total_cycles", "latency_s", "lower_bound_s",
                "stall.bank_conflict", "stall.feedback_wait", "stall.drain",
                "energy_j"} | {f"busy.core{i}" for i in range(16)}
    assert set(metrics) == expected
    assert int(metrics["total_cycles"]) == rep.total_cycles
    assert float(metrics["energy_j"]) == pytest.approx(rep.energy_j, rel=1e-8)


# ---------------------------------------------------------------- config file


def test_parse_config_full(tmp_path):
    p = tmp_path / "arch.cfg"
    p.write_text(
        "# accelerator model\n"
        "cores = 8\n"
        "banks = 8\n"
        "features.interleaving = off\n"
        "features.wrapping = true\n"
    )
    cfg = parse_config(p)
    assert cfg.n_cores == 8
    assert cfg.n_banks == 8
    assert cfg.wrapping and not cfg.interleaving


def test_arch_config_holds_only_the_ablations():
    # the clock and the energy model are constants, not settings
    assert [f.name for f in fields(ArchConfig)] == [
        "n_cores", "n_banks", "interleaving", "wrapping"]
    assert ArchConfig().clock_hz == ArchConfig(n_cores=3).clock_hz == CLOCK_HZ == 1e8


def test_parse_config_errors(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("cores = 8\nwat = 1\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2"):
        parse_config(bad_key)
    bad_bool = tmp_path / "bool.cfg"
    bad_bool.write_text("features.wrapping = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        parse_config(bad_bool)
    no_eq = tmp_path / "noeq.cfg"
    no_eq.write_text("cores 8\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config(no_eq)
    # a bad value is named at its line, after lines that were fine
    for line, message in (
            ("banks = 0", "banks must be >= 1, got 0"),
            ("banks = -2", "banks must be >= 1, got -2"),
            ("cores = 0", "cores must be >= 1, got 0"),
            ("cores = -1", "cores must be >= 1, got -1")):
        bad_value = tmp_path / "value.cfg"
        bad_value.write_text(f"# arch\ncores = 4\n{line}\nbanks = 4\n")
        with pytest.raises(ValueError, match=rf"value\.cfg:3: {message}"):
            parse_config(bad_value)


REMOVED_KEYS = (("interleave_depth = 8", "unknown key 'interleave_depth'"),
                ("max_map = 512", "unknown key 'max_map'"),
                ("features.banking = true", "unknown feature 'banking'"),
                ("clock_hz = 1e8", "unknown key 'clock_hz'"),
                ("energy.e_core_cycle = 4.4e-10", "unknown key 'energy.e_core_cycle'"),
                ("energy.e_stall_cycle = 1.1e-10", "unknown key 'energy.e_stall_cycle'"),
                ("energy.e_mem_access = 6.3e-11", "unknown key 'energy.e_mem_access'"),
                ("energy.e_static_per_s = 0.11", "unknown key 'energy.e_static_per_s'"))


@pytest.mark.parametrize("line,message", REMOVED_KEYS)
def test_parse_config_rejects_removed_keys_at_their_line(tmp_path, line, message):
    # no banking is banks = 1, interleaving a switch, map capacity a
    # constant, and so are the clock and the energy model
    path = tmp_path / "old.cfg"
    path.write_text(f"cores = 16\n{line}\nbanks = 16\n")
    with pytest.raises(ValueError) as info:
        parse_config(path)
    assert str(info.value) == f"{path}:2: {message}"


def test_shipped_config_is_the_default(data_dir):
    shipped = parse_config(data_dir / "default.cfg")
    default = ArchConfig()
    for f in fields(ArchConfig):
        if f.name != "n_banks":
            assert getattr(shipped, f.name) == getattr(default, f.name), f.name
    assert shipped.n_banks == 16 and default.n_banks is None
    assert shipped.eff_banks == default.eff_banks == 16
    grid = OccupancyGrid.uniform((9, 14))
    reports = [report_csv(simulate(grid, SensorConfig(7), PARAMS, cfg,
                                   compute_values=False)[1])
               for cfg in (shipped, default)]
    assert reports[0] == reports[1]
