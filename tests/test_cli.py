"""Command-line behavior: exit codes, file outputs, determinism."""

import numpy as np
import pytest

from mimap import cli
from mimap.cli import EXIT_ASSERT, EXIT_OK, EXIT_USAGE, main
from mimap.datapath import compute_mi_map_fxp, dump_tables
from mimap.grid import FcmiParams, MIMap, OccupancyGrid, SensorConfig
from mimap.gridio import read_grid, read_mi_map, write_grid, write_mi_map


@pytest.fixture
def grid_file(tmp_path, rng):
    levels = rng.integers(0, 101, size=(9, 9), dtype=np.uint8)
    path = tmp_path / "g.grid"
    write_grid(OccupancyGrid(levels, 0.1), path)
    return path


@pytest.fixture
def scene_file(tmp_path):
    occ = np.zeros((11, 11), np.uint8)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = 100
    occ[5, 2:6] = 100
    path = tmp_path / "scene.grid"
    write_grid(OccupancyGrid(occ, 0.1), path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- mi maps


def test_mi_ref_on_free_cell_writes_zero(tmp_path, capsys):
    g = tmp_path / "one.grid"
    write_grid(OccupancyGrid(np.zeros((1, 1), np.uint8)), g)
    out = tmp_path / "one.mimap"
    code, _, _ = run(capsys, "mi-ref", "--grid", str(g), "--out", str(out))
    assert code == EXIT_OK
    np.testing.assert_array_equal(read_mi_map(out).values, [[0.0]])


def test_mi_fxp_matches_library_and_pgm_header(grid_file, tmp_path, capsys):
    out = tmp_path / "m.mimap"
    pgm = tmp_path / "m.pgm"
    code, _, _ = run(capsys, "mi-fxp", "--grid", str(grid_file), "--rays", "8",
                     "--out", str(out), "--pgm", str(pgm))
    assert code == EXIT_OK
    want = compute_mi_map_fxp(read_grid(grid_file), SensorConfig(8), FcmiParams())
    np.testing.assert_array_equal(read_mi_map(out).values, want.values)
    assert pgm.read_bytes().startswith(b"P5\n")


def test_mi_normalize_flag(grid_file, tmp_path, capsys):
    raw = tmp_path / "raw.mimap"
    norm = tmp_path / "norm.mimap"
    run(capsys, "mi-ref", "--grid", str(grid_file), "--rays", "8", "--out", str(raw))
    run(capsys, "mi-ref", "--grid", str(grid_file), "--rays", "8", "--out", str(norm),
        "--normalize")
    values = read_mi_map(norm).values
    assert values.min() == 0.0 and values.max() == 1.0
    np.testing.assert_allclose(values, read_mi_map(raw).normalized(),
                               rtol=0, atol=1e-15)


def test_mi_rejects_too_few_rays(grid_file, tmp_path, capsys):
    code, _, err = run(capsys, "mi-ref", "--grid", str(grid_file), "--rays", "3",
                       "--out", str(tmp_path / "x"))
    assert code == EXIT_USAGE
    assert "at least 4" in err


def test_missing_grid_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.grid"
    code, _, err = run(capsys, "mi-ref", "--grid", str(missing),
                       "--out", str(tmp_path / "x"))
    assert code == EXIT_USAGE
    assert "nope.grid" in err


@pytest.mark.parametrize("resolution", ["inf", "nan"])
def test_mi_rejects_non_finite_resolution(tmp_path, capsys, resolution):
    g = tmp_path / "res.grid"
    g.write_text(f"2 2 {resolution}\n0 50\n50 0\n")
    code, _, err = run(capsys, "mi-fxp", "--grid", str(g), "--rays", "4",
                       "--out", str(tmp_path / "x"))
    assert code == EXIT_USAGE
    assert f"{g}:1: resolution must be positive and finite" in err


def test_mi_fxp_rejects_resolution_beyond_the_datapath(tmp_path, capsys):
    # finite, but the cell width overflows when scaled to a Q20.12 word
    g = tmp_path / "huge.grid"
    g.write_text("2 2 1e306\n0 50\n50 0\n")
    code, _, err = run(capsys, "mi-fxp", "--grid", str(g), "--rays", "4",
                       "--out", str(tmp_path / "x"))
    assert code == EXIT_USAGE
    assert err.startswith("error: cannot encode") and "Traceback" not in err


def test_mi_fxp_warns_of_saturation_on_stderr_only(tmp_path, capsys, rng):
    grid = OccupancyGrid(rng.integers(0, 101, size=(9, 13), dtype=np.uint8), 1e9)
    g = tmp_path / "wide.grid"
    write_grid(grid, g)
    out, want = tmp_path / "m.mimap", tmp_path / "want.mimap"
    code, stdout, err = run(capsys, "mi-fxp", "--grid", str(g), "--rays", "10",
                            "--out", str(out))
    mi = compute_mi_map_fxp(read_grid(g), SensorConfig(10))
    assert code == EXIT_OK and mi.saturations > 0
    assert err == f"warning: {mi.saturations} saturations\n" and stdout == ""
    write_mi_map(mi, want)
    assert out.read_bytes() == want.read_bytes()


def test_mi_fxp_exact_zero_map_is_silent(tmp_path, capsys):
    # 1e5 m widths would clip the preprocess of occupied levels, but an
    # all-free grid holds none, so its exact zero map raises no warning
    g = tmp_path / "free.grid"
    g.write_text("2 2 1e5\n0 0\n0 0\n")
    out = tmp_path / "m.mimap"
    code, stdout, err = run(capsys, "mi-fxp", "--grid", str(g), "--rays", "4",
                            "--out", str(out))
    assert code == EXIT_OK and stdout == "" and err == ""
    np.testing.assert_array_equal(read_mi_map(out).values, np.zeros((2, 2)))


def test_mi_fxp_on_bundled_snapshot_is_silent(data_dir, tmp_path, capsys):
    code, stdout, err = run(capsys, "mi-fxp", "--grid", str(data_dir / "explore_a.grid"),
                            "--out", str(tmp_path / "m.mimap"))
    assert code == EXIT_OK and stdout == "" and err == ""


def test_mi_outputs_are_byte_identical(grid_file, tmp_path, capsys):
    a, b = tmp_path / "a.mimap", tmp_path / "b.mimap"
    for path in (a, b):
        run(capsys, "mi-fxp", "--grid", str(grid_file), "--rays", "8",
            "--out", str(path))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------- compare


def test_compare_identical_maps(grid_file, tmp_path, capsys):
    out = tmp_path / "m.mimap"
    run(capsys, "mi-ref", "--grid", str(grid_file), "--rays", "8", "--out", str(out))
    code, text, _ = run(capsys, "compare", str(out), str(out))
    assert code == EXIT_OK
    assert text.splitlines() == ["max_abs_diff,0.000000000e+00",
                                 "mean_abs_diff,0.000000000e+00"]


def test_compare_reports_injected_perturbation(tmp_path, capsys):
    base = np.array([[0.0, 1.0], [0.5, 0.25]])
    bent = base.copy()
    bent[1, 0] = 0.75  # stays inside [min, max]: normalization unchanged
    pa, pb = tmp_path / "a.mimap", tmp_path / "b.mimap"
    write_mi_map(MIMap(base), pa)
    write_mi_map(MIMap(bent), pb)
    code, text, _ = run(capsys, "compare", str(pa), str(pb))
    assert code == EXIT_OK
    assert text.splitlines()[0] == "max_abs_diff,2.500000000e-01"


def test_compare_assert_max(tmp_path, capsys):
    base = np.array([[0.0, 1.0], [0.5, 0.25]])
    bent = base.copy()
    bent[1, 0] = 0.75
    pa, pb = tmp_path / "a.mimap", tmp_path / "b.mimap"
    write_mi_map(MIMap(base), pa)
    write_mi_map(MIMap(bent), pb)
    code, _, _ = run(capsys, "compare", str(pa), str(pb), "--assert-max", "0.3")
    assert code == EXIT_OK
    code, _, err = run(capsys, "compare", str(pa), str(pb), "--assert-max", "0.2")
    assert code == EXIT_ASSERT
    assert "exceeds" in err


@pytest.mark.parametrize("bound", ["nan", "inf", "-1"])
def test_compare_rejects_assert_max_that_cannot_fail(tmp_path, capsys, bound):
    # no difference exceeds NaN or inf, and none is below 0
    pa, pb = tmp_path / "a.mimap", tmp_path / "b.mimap"
    write_mi_map(MIMap(np.array([[0.0, 1.0]])), pa)
    write_mi_map(MIMap(np.array([[1.0, 0.0]])), pb)
    code, text, err = run(capsys, "compare", str(pa), str(pb), "--assert-max", bound)
    assert code == EXIT_USAGE
    assert text == ""
    assert err == f"error: --assert-max must be finite and >= 0, got {float(bound)}\n"


def test_compare_nan_map_fails_assert_max(tmp_path, capsys):
    # a map holding NaN is rejected as input, so it cannot pass as equal
    pa, pb = tmp_path / "a.mimap", tmp_path / "b.mimap"
    write_mi_map(MIMap(np.array([[np.nan, 1.0]])), pa)
    write_mi_map(MIMap(np.array([[0.0, 1.0]])), pb)
    code, text, err = run(capsys, "compare", str(pa), str(pb), "--assert-max", "0.01")
    assert code == EXIT_USAGE
    assert text == ""
    assert f"{pa}:2: field 1: non-finite value 'nan'" in err


def test_compare_names_the_field_that_is_not_a_number(tmp_path, capsys):
    pa, pb = tmp_path / "a.mimap", tmp_path / "b.mimap"
    write_mi_map(MIMap(np.zeros((2, 2))), pa)
    pb.write_text("2 2\n0 0\n0.5 abc\n")
    code, out, err = run(capsys, "compare", str(pa), str(pb))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {pb}:3: field 2: not a number: 'abc'\n"


def test_mi_ref_rejects_trailing_grid_row(tmp_path, capsys):
    grid = tmp_path / "g.grid"
    grid.write_text("2 2 0.1\n0 0\n0 0\n7 7\n")
    code, out, err = run(capsys, "mi-ref", "--grid", str(grid), "--rays", "4",
                         "--out", str(tmp_path / "m.mimap"))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {grid}:4: expected 2 data rows, found more\n"


@pytest.mark.parametrize("message,want", [
    ("Unable to allocate 452. GiB for an array with shape (6, 100000000, 101) "
     "and data type float64",
     "Unable to allocate 452. GiB for an array with shape (6, 100000000, 101) "
     "and data type float64"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_allocation_failure_is_one_error_line(grid_file, tmp_path, capsys, monkeypatch,
                                              message, want):
    # the engine fails as numpy does when asked for more memory than there is
    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "compute_mi_map_fxp", out_of_memory)
    code, out, err = run(capsys, "mi-fxp", "--grid", str(grid_file),
                         "--out", str(tmp_path / "m.mimap"))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {want}\n"


@pytest.mark.parametrize("reader", ["grid", "map", "config"])
def test_undecodable_input_names_its_file_and_line(grid_file, tmp_path, capsys, reader):
    bad = tmp_path / "bad"
    if reader == "grid":
        bad.write_bytes(b"2 2 0.1\n0 0\n0 \xff\n")
        argv, line = ("mi-ref", "--grid", str(bad), "--out", str(tmp_path / "m")), 3
    elif reader == "map":
        good = tmp_path / "good.mimap"
        write_mi_map(MIMap(np.zeros((2, 2))), good)
        bad.write_bytes(b"2 2\n0 \xff\n0 0\n")
        argv, line = ("compare", str(good), str(bad)), 2
    else:
        bad.write_bytes(b"cores = 4\n\n# caf\xe9\nbanks = 4\n")
        argv, line = ("simulate", "--grid", str(grid_file), "--config", str(bad)), 3
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {bad}:{line}: not UTF-8 text\n"


def test_compare_rejects_trailing_map_row(tmp_path, capsys):
    pa, pb = tmp_path / "a.mimap", tmp_path / "b.mimap"
    write_mi_map(MIMap(np.zeros((2, 2))), pa)
    write_mi_map(MIMap(np.zeros((2, 2))), pb)
    with open(pb, "a", encoding="utf-8") as fh:
        fh.write("foo bar\n")
    code, out, err = run(capsys, "compare", str(pa), str(pb))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {pb}:4: expected 2 data rows, found more\n"


def test_mi_ref_rejects_grid_header_wider_than_its_rows(tmp_path, capsys):
    grid = tmp_path / "g.grid"
    grid.write_text("1 1000000000000 0.1\n0 0\n")
    code, out, err = run(capsys, "mi-ref", "--grid", str(grid), "--rays", "4",
                         "--out", str(tmp_path / "m.mimap"))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {grid}:2: expected 1000000000000 values, found 2\n"


def test_compare_rejects_map_header_wider_than_its_rows(tmp_path, capsys):
    pa, pb = tmp_path / "a.mimap", tmp_path / "b.mimap"
    write_mi_map(MIMap(np.zeros((1, 2))), pa)
    pb.write_text("1 1000000000000\n0 0\n")
    code, out, err = run(capsys, "compare", str(pa), str(pb))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {pb}:2: expected 1000000000000 values, found 2\n"


def test_compare_dim_mismatch(tmp_path, capsys):
    pa, pb = tmp_path / "a.mimap", tmp_path / "b.mimap"
    write_mi_map(MIMap(np.zeros((2, 2))), pa)
    write_mi_map(MIMap(np.zeros((3, 2))), pb)
    code, _, err = run(capsys, "compare", str(pa), str(pb))
    assert code == EXIT_USAGE
    assert "2x2" in err and "3x2" in err


# ---------------------------------------------------------------- simulate/sweep


def test_simulate_report_and_map(grid_file, tmp_path, capsys):
    report = tmp_path / "r.csv"
    mi_out = tmp_path / "m.mimap"
    code, _, _ = run(capsys, "simulate", "--grid", str(grid_file), "--rays", "8",
                     "--out", str(report), "--map", str(mi_out))
    assert code == EXIT_OK
    rows = dict(line.split(",") for line in report.read_text().strip().splitlines()[1:])
    assert float(rows["latency_s"]) >= float(rows["lower_bound_s"])
    assert float(rows["lower_bound_s"]) == pytest.approx(9 * 9 * 8 / 16e8)
    want = compute_mi_map_fxp(read_grid(grid_file), SensorConfig(8), FcmiParams())
    np.testing.assert_array_equal(read_mi_map(mi_out).values, want.values)


def test_simulate_map_warns_of_saturation_as_mi_fxp_does(tmp_path, capsys, rng):
    # the same map, the same stderr line; the report does not change
    grid = OccupancyGrid(rng.integers(0, 101, size=(12, 12), dtype=np.uint8), 1e9)
    g = tmp_path / "wide.grid"
    write_grid(grid, g)
    fxp, sim = tmp_path / "fxp.mimap", tmp_path / "sim.mimap"
    report, bare = tmp_path / "r.csv", tmp_path / "bare.csv"
    _, _, want = run(capsys, "mi-fxp", "--grid", str(g), "--rays", "8", "--out", str(fxp))
    code, stdout, err = run(capsys, "simulate", "--grid", str(g), "--rays", "8",
                            "--map", str(sim), "--out", str(report))
    assert code == EXIT_OK and stdout == ""
    assert want.startswith("warning: ") and err == want
    assert sim.read_bytes() == fxp.read_bytes()
    run(capsys, "simulate", "--grid", str(g), "--rays", "8", "--out", str(bare))
    assert report.read_bytes() == bare.read_bytes()


def test_simulate_config_file(grid_file, tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("cores = 4\nbanks = 4\n")
    out = tmp_path / "r.csv"
    code, _, _ = run(capsys, "simulate", "--grid", str(grid_file), "--rays", "8",
                     "--config", str(cfg), "--out", str(out))
    assert code == EXIT_OK
    text = out.read_text()
    assert "busy.core3" in text and "busy.core4" not in text


def test_bad_config_line_number(grid_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cores = 4\nnope = 1\n")
    code, _, err = run(capsys, "simulate", "--grid", str(grid_file),
                       "--config", str(cfg))
    assert code == EXIT_USAGE
    assert "bad.cfg:2" in err


@pytest.mark.parametrize("text,message", [
    ("cores = 0\n", "1: cores must be >= 1, got 0"),
    ("cores = 4\nbanks = 0\n", "2: banks must be >= 1, got 0"),
], ids=["cores", "banks"])
def test_simulate_rejects_zero_cores_or_banks(tmp_path, capsys, text, message):
    grid = tmp_path / "g.grid"
    write_grid(OccupancyGrid.uniform((2, 2)), grid)
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(text)
    code, out, err = run(capsys, "simulate", "--grid", str(grid), "--rays", "4",
                         "--config", str(cfg))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {cfg}:{message}\n"


@pytest.mark.parametrize("line,message", [
    ("interleave_depth = 8", "unknown key 'interleave_depth'"),
    ("max_map = 512", "unknown key 'max_map'"),
    ("features.banking = true", "unknown feature 'banking'"),
    ("clock_hz = 1e8", "unknown key 'clock_hz'"),
])
def test_simulate_rejects_removed_config_keys(tmp_path, capsys, line, message):
    grid = tmp_path / "g.grid"
    write_grid(OccupancyGrid.uniform((2, 2)), grid)
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"cores = 4\n{line}\n")
    code, out, err = run(capsys, "simulate", "--grid", str(grid), "--rays", "4",
                         "--config", str(cfg))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {cfg}:2: {message}\n"


def test_sweep_csv(grid_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--grid", str(grid_file), "--rays", "8",
                     "--cores", "1,2,4", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "cores,latency_s,energy_j"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "2", "4"]
    lats = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert lats[0] > lats[1] > lats[2]


def test_sweep_rejects_bad_cores(grid_file, capsys):
    code, _, err = run(capsys, "sweep", "--grid", str(grid_file),
                       "--cores", "1,x")
    assert code == EXIT_USAGE
    assert "comma list" in err


# ---------------------------------------------------------------- explore


def test_explore_trial_csv(scene_file, tmp_path, capsys):
    out = tmp_path / "trial.csv"
    code, _, _ = run(capsys, "explore", "--scene", str(scene_file),
                     "--rays", "8", "--max-steps", "40", "--out", str(out))
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,sim_time_s,")
    assert len(lines) >= 2


def test_explore_seeded_rerun_is_identical(scene_file, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "explore", "--scene", str(scene_file),
                         "--rays", "8", "--seed", "7", "--max-steps", "40",
                         "--out", str(path))
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("rate", ["nan", "inf", "0"])
def test_explore_rejects_non_finite_scan_rate(scene_file, capsys, rate):
    code, out, err = run(capsys, "explore", "--scene", str(scene_file),
                         "--rays", "8", "--max-steps", "5", "--scan-rate-hz", rate)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: scan_rate_hz must be positive and finite")


@pytest.mark.parametrize("flag,value,message", [
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--max-steps", "0", "max_steps must be >= 1, got 0"),
    ("--max-steps", "-5", "max_steps must be >= 1, got -5"),
])
def test_explore_rejects_negative_seed_and_no_steps(scene_file, capsys, flag, value,
                                                     message):
    code, out, err = run(capsys, "explore", "--scene", str(scene_file),
                         "--rays", "8", flag, value)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


def test_explore_unknown_platform(scene_file, capsys):
    code, _, err = run(capsys, "explore", "--scene", str(scene_file),
                       "--platform", "tpu")
    assert code == EXIT_USAGE
    assert "tpu" in err and "fpga" in err


def test_explore_rejects_non_binary_scene(grid_file, capsys):
    code, _, err = run(capsys, "explore", "--scene", str(grid_file),
                       "--max-steps", "5")
    assert code == EXIT_USAGE
    assert "levels 0 and 100" in err


# ---------------------------------------------------------------- dump/usage


def test_dump_tables_stable(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert main(["dump-tables", "--out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == dump_tables()


def test_dump_tables_stdout(capsys):
    code, out, _ = run(capsys, "dump-tables")
    assert code == EXIT_OK
    assert out == dump_tables()


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE
