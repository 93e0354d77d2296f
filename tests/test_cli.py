"""Command-line surface: subcommands, exit codes, reproducible outputs."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import v2isim
from v2isim import ScenarioConfig, analytic, channel, engine, mobility, validation
from v2isim.cli import derive_cell_seed, main

# Trigger near the entry edge so crossings start ~3 s in, keeping runs short.
FAST = [
    "--set", "sim_duration=30000", "--set", "warmup=0", "--set", "d_t=1400",
    "--set", "flow_rate=4", "--set", "bsm_period=500",
]


def test_missing_config_exits_nonzero_naming_path(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "absent.cfg" in capsys.readouterr().err


def test_unknown_override_key_rejected(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path / "o"), "--set", "bogus=1"])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


# TMP in a case stands for the test's temporary directory.
@pytest.mark.parametrize("command, bad, field", [
    ("simulate", "--set d_t=nan", "d_t"),
    ("simulate", "--set lane_width=nan", "lane_width"),
    ("simulate", "--set flow_rate=inf", "flow_rate"),
    ("simulate", "--seed -1", "rng_seed"),
    ("validate", "--seed -1", "rng_seed"),
    ("sweep", "--seed -1", "rng_seed"),
    ("analytic", "--set lane_width=nan", "lane_width"),
    ("validate", "--set b_ack=0", "b_ack"),
    ("sweep", "--d-t 5000 --flows 10", "d_t"),
    ("sweep", "--flows 10,x", "'10,x'"),
    ("sweep", "--d-t , --flows 10", "sweep grid must be non-empty"),
    ("sweep", "--set per_curve=TMP/missing.per", "TMP/missing.per"),
    ("analytic", "--densities nan", "flow_rate"),
    ("analytic", "--densities 0", "flow_rate"),
    ("analytic", "--densities 1e6", "flow_rate"),
    ("analytic", "--d-min nan", "--d-min"),
    ("analytic", "--d-min 10 --d-max 0", "--d-max"),
    ("analytic", "--d-step 1e-300", "--d-step"),
    ("analytic", "--d-step 0", "--d-step must be > 0"),
    ("analytic", "--d-min 0 --d-max 100000 --d-step 0.5", "--d-step must give at most"),
    ("analytic", "--d-min=-1e308 --d-max=1e308", "--d-max"),
    ("analytic", "--d-min 1e17 --d-max 1e17 --d-step 1", "--d-step"),
    # Rounding at 1e17 makes a 24 m step 32 m.
    ("analytic", "--d-min 1e17 --d-max 100000000000000096 --d-step 24 --densities 10",
     "--d-step"),
    ("validate", "--point nan:10", "d_t"),
    ("validate", "--point 0:0", "flow_rate"),
    ("validate", "--trials 1000000000000000000000000000000 --point 0:10", "trials"),
    ("analytic", "--densities ,", "--densities"),
    ("simulate", "--set d_t=1 --set d_t=2", "duplicate key 'd_t'"),
    ("simulate", "--set b_ack=x", "b_ack=x"),
    ("trace", "--set mean_speed=1e-320", "mean_speed"),
])
def test_non_finite_value_or_negative_seed_exits_2_naming_field(
        tmp_path, capsys, command, bad, field):
    bad, field = (text.replace("TMP", str(tmp_path)) for text in (bad, field))
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, *out, *FAST, *bad.split()]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "line 1" not in err


@pytest.mark.parametrize("bad", ["mean_speed=1e-300", "road_length=1e150"])
def test_transit_time_past_int64_exits_2_naming_the_fields(tmp_path, capsys, bad):
    # With so few arrivals the retry-timer bound passes; the BSM counts' int64
    # stretch window cannot hold the transit time.
    argv = ["simulate", "--out", str(tmp_path / "o"), "--set", bad, "--set", "flow_rate=1e-300"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "road_length / mean_speed must be a transit time below 2**63 ms" in err
    assert "Traceback" not in err


def test_trigger_outside_stretch_still_accepted_by_model_commands(tmp_path, capsys):
    """The closed form has no stretch: analytic and validate accept any finite d_t."""
    out = tmp_path / "ana.csv"
    assert main(["analytic", "--out", str(out), "--d-min", "1900", "--d-max", "2000",
                 "--densities", "10"]) == 0
    assert len(out.read_text().splitlines()) == 1 + 6
    assert main(["validate", "--trials", "10000", "--point", "2000:10"]) == 0
    assert "d_t=2000 flow=10 n=0" in capsys.readouterr().out


@pytest.mark.parametrize("command, argv", [
    ("sweep", "--set sim_duration=3000 --set warmup=0 --set flow_rate=1e6 --flows 10 --d-t 0"),
    ("sweep", "--set d_t=2000 --d-t 0 --flows 10 --set sim_duration=3000 --set warmup=0"),
    ("analytic", "--set flow_rate=1e9 --densities 10"),
    ("validate", "--set flow_rate=1e9 --trials 10000 --point 0:10"),
    ("analytic", "--set d_t=2000 --densities 10"),
    ("validate", "--set d_t=2000 --trials 10000 --point 0:10"),
    ("sweep", "--config flow_rate=1e6 --set sim_duration=3000 --set warmup=0 --flows 10 --d-t 0"),
    ("sweep", "--config d_t=5000 --d-t 0 --flows 10 --set sim_duration=3000 --set warmup=0"),
    ("analytic", "--config flow_rate=1e9 --densities 10"),
    ("validate", "--config flow_rate=1e9 --trials 10000 --point 0:10"),
    ("analytic", "--config d_t=5000 --densities 10"),
    ("validate", "--config d_t=5000 --trials 10000 --point 0:10"),
])
def test_set_values_that_every_scenario_replaces_are_not_validated(
        tmp_path, capsys, command, argv):
    """Each sweep cell, density or point is validated, not the base it replaces,
    whether a value comes from ``--set`` or from a ``--config`` file."""
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    argv = argv.split()
    if argv[0] == "--config":   # the next item is the file's one line
        (tmp_path / "base.cfg").write_text(argv[1] + "\n")
        argv[1] = str(tmp_path / "base.cfg")
    assert main([command, *out, *argv]) == 0
    if command == "sweep":
        assert len((tmp_path / "o" / "sweep_summary.csv").read_text().splitlines()) == 2
    assert "invalid configuration" not in capsys.readouterr().err


def test_simulate_writes_tables(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), *FAST]) == 0
    assert (out / "records.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "run.meta").exists()
    header = (out / "records.csv").read_text().splitlines()[0]
    assert header.startswith("vehicle_id,direction")


def test_simulate_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text("flow_rate = 6\nsim_duration = 30000\nwarmup = 0\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "flow_rate = 6.0" in (out / "run.meta").read_text()


def test_run_meta_with_a_relative_calibration_path_loads_back(tmp_path, monkeypatch):
    """A relative ``--set per_curve`` names a file in the working directory,
    so run.meta records it absolute and reruns from any directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cal.txt").write_text(channel.dumps_per_curve(channel.default_calibration()))
    assert main(["simulate", "--out", "o", *FAST, "--set", "per_curve=cal.txt"]) == 0
    assert f"per_curve = {tmp_path / 'cal.txt'}\n" in (tmp_path / "o" / "run.meta").read_text()
    assert main(["simulate", "--config", "o/run.meta", "--out", "again"]) == 0
    assert (tmp_path / "again" / "records.csv").read_bytes() \
        == (tmp_path / "o" / "records.csv").read_bytes()


@pytest.mark.parametrize("curve", ["/tmp/a#b.txt", "/tmp/a\nb.txt"])
def test_per_curve_a_config_file_cannot_hold_exits_2_naming_the_field(
        tmp_path, capsys, curve):
    assert main(["simulate", "--out", str(tmp_path / "o"), "--set", f"per_curve={curve}"]) == 2
    assert "per_curve must be non-empty, without '#'" in capsys.readouterr().err


def test_imports_load_no_pool_or_parser_module():
    """Start-up pays for neither: a pool and a command line import them on use."""
    code = ("import sys, v2isim, v2isim.cli, v2isim.analytic, v2isim.validation; "
            "print(sorted({'multiprocessing', 'concurrent.futures', 'argparse'} "
            "& set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(v2isim.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_seed_override_changes_but_reproduces(tmp_path):
    outs = {}
    for name, seed in (("a", "101"), ("b", "202"), ("a2", "101")):
        out = tmp_path / name
        assert main(["simulate", "--out", str(out), "--seed", seed, *FAST]) == 0
        outs[name] = (out / "records.csv").read_bytes()
    assert outs["a"] == outs["a2"]
    assert outs["a"] != outs["b"]


def test_sweep_single_cell_matches_simulate(tmp_path):
    sweep_out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(sweep_out), "--d-t", "1400", "--flows", "4",
                 "--set", "sim_duration=30000", "--set", "warmup=0",
                 "--set", "bsm_period=500"]) == 0
    sweep_lines = (sweep_out / "sweep_summary.csv").read_text().splitlines()
    assert len(sweep_lines) == 2

    sim_out = tmp_path / "sim"
    cell_seed = derive_cell_seed(1, 1400.0, 4.0)
    assert main(["simulate", "--out", str(sim_out), "--seed", str(cell_seed),
                 "--set", "d_t=1400", "--set", "flow_rate=4",
                 "--set", "sim_duration=30000", "--set", "warmup=0",
                 "--set", "bsm_period=500"]) == 0
    sim_lines = (sim_out / "summary.csv").read_text().splitlines()
    assert sweep_lines == sim_lines


def test_sweep_parallelism_byte_identical(tmp_path):
    blobs = []
    for name, degree in (("p1", "1"), ("p2", "2")):
        out = tmp_path / name
        assert main(["sweep", "--out", str(out), "--d-t", "1400,1200",
                     "--flows", "4", "--parallel", degree,
                     "--set", "sim_duration=30000", "--set", "warmup=0",
                     "--set", "bsm_period=500"]) == 0
        blobs.append(((out / "sweep_summary.csv").read_bytes(),
                      (out / "sweep.meta").read_bytes()))
    assert blobs[0] == blobs[1]


def test_sweep_reports_a_failed_cell_and_keeps_the_others(tmp_path, capsys, monkeypatch):
    run = engine.run

    def fail_at_1200(cfg, trace_path=None):
        if cfg.d_t == 1200.0:
            raise engine.EngineError("stand-in fault")
        return run(cfg, trace_path)

    monkeypatch.setattr(engine, "run", fail_at_1200)
    out = tmp_path / "o"
    assert main(["sweep", "--out", str(out), "--d-t", "1400,1200,1000", "--flows", "4",
                 "--parallel", "1", *FAST]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("sweep: cell ")] == [
        "sweep: cell d_t=1200.0 flow=4.0 failed: stand-in fault"]
    rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["1400", "4"], ["1000", "4"]]


def test_sweep_grid_shape(tmp_path):
    out = tmp_path / "grid"
    assert main(["sweep", "--out", str(out), "--d-t", "300,0,-100",
                 "--flows", "4,6", "--set", "sim_duration=20000",
                 "--set", "warmup=0", "--set", "bsm_period=1000"]) == 0
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert len(lines) == 7  # header + 3 x 2 cells


def test_analytic_default_grid_row_count(tmp_path):
    out = tmp_path / "ana.csv"
    assert main(["analytic", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 41 * 3  # header + 123 rows


def test_analytic_grid_never_passes_d_max(tmp_path, monkeypatch):
    """At a 0.1 m step from -300 m, np.arange's grid ends 1.8e-10 m past 500."""
    grids = []
    sweep = analytic.sweep_trigger
    monkeypatch.setattr(analytic, "sweep_trigger",
                        lambda params, d_range: grids.append(d_range) or sweep(params, d_range))
    assert main(["analytic", "--out", str(tmp_path / "ana.csv"), "--d-min", "-300",
                 "--d-max", "500", "--d-step", "0.1", "--densities", "10"]) == 0
    (grid,) = grids
    assert len(grid) == 8001 and grid[0] == -300.0 and max(grid) <= 500.0


@pytest.mark.parametrize("d_min, d_max, d_step", [
    ("1000000", "1000002", "0.5"),            # steps past .6g's sixth digit
    ("1e17", "100000000000000096", "32"),     # two ulps a step
])
def test_analytic_rows_print_apart_and_read_back_as_the_grid(tmp_path, d_min, d_max, d_step):
    out = tmp_path / "ana.csv"
    assert main(["analytic", "--out", str(out), "--d-min", d_min, "--d-max", d_max,
                 "--d-step", d_step, "--densities", "10"]) == 0
    keys = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    assert len(keys) >= 4 and len(set(keys)) == len(keys)
    lo, step = float(d_min), float(d_step)
    assert [float(k) for k in keys] == [lo + k * step for k in range(len(keys))]


@pytest.mark.parametrize("d_min, d_max, d_step, rows", [
    ("1e17", "1e17", "16", 1),                                  # one ulp: d_min alone
    ("1", "1.0000000000000022", "2.220446049250313e-16", 11),   # one ulp a step
])
def test_analytic_step_of_one_ulp_writes_its_grid(tmp_path, d_min, d_max, d_step, rows):
    out = tmp_path / "ana.csv"
    assert main(["analytic", "--out", str(out), "--d-min", d_min, "--d-max", d_max,
                 "--d-step", d_step, "--densities", "10"]) == 0
    written = [line.split(",") for line in out.read_text().splitlines()[1:]]
    lo, step = float(d_min), float(d_step)
    d_values = [lo + k * step for k in range(rows)]
    assert [float(row[1]) for row in written] == d_values
    params = dataclasses.replace(analytic.params_from_config(ScenarioConfig()), density=10.0)
    for row, point in zip(written, analytic.sweep_trigger(params, d_values)):
        assert row[0] == "10"
        assert (float(row[2]), float(row[3])) == pytest.approx(
            (point.mean_attempts, point.success_mass), rel=1e-5)


def test_analytic_single_point_is_sweep_minimum(tmp_path):
    full = tmp_path / "full.csv"
    single = tmp_path / "single.csv"
    assert main(["analytic", "--out", str(full), "--densities", "30"]) == 0
    assert main(["analytic", "--out", str(single), "--d-min", "0", "--d-max", "0",
                 "--densities", "30"]) == 0
    rows = [line.split(",") for line in full.read_text().splitlines()[1:]]
    means = [float(r[2]) for r in rows]
    single_row = single.read_text().splitlines()[1].split(",")
    assert float(single_row[1]) == 0.0
    assert float(single_row[2]) == pytest.approx(min(means))


def test_validate_lossless_is_exact(tmp_path, lossless_curve_file, capsys):
    code = main(["validate", "--trials", "20000", "--point", "0:10",
                 "--set", f"per_curve={lossless_curve_file}"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n=0 observed=20000 expected=20000.0" in out


def test_validate_constant_channel_geometric(tmp_path, capsys):
    curve = tmp_path / "p08.per"
    curve.write_text("density 10\n0 0.2\n10000 0.2\n")  # success 0.8 per packet
    code = main(["validate", "--trials", "50000", "--point", "0:10",
                 "--seed", "5", "--set", f"per_curve={curve}"])
    assert code == 0
    assert capsys.readouterr().out.count("ok") == 6


def test_validate_does_not_flag_a_bin_that_expects_almost_nothing(capsys):
    """Seed 4 draws one first success where 0.1 is expected (3 sigma away):
    likely enough under the binomial, so the tail test passes it."""
    assert main(["validate", "--seed", "4"]) == 0
    assert "d_t=0 flow=10 n=4 observed=1 expected=0.1 sigma=0.3 ok" in capsys.readouterr().out


def test_validate_false_alarms_stay_at_the_shared_level(capsys):
    """The 18 bins of a run share a 1e-3 false-alarm level: over 1000 base seeds
    at the default points about one run should fail (the 3-sigma rule failed 113)."""
    failed = [seed for seed in range(1000) if main(["validate", "--seed", str(seed)]) != 0]
    capsys.readouterr()
    assert len(failed) <= 3, failed


def test_validate_flags_a_pmf_moved_by_one_percent(monkeypatch, capsys):
    """The check keeps its power: moving 0.01 of the pmf's mass from attempt 0
    to attempt 1 fails both bins at every default point."""
    exact = validation.first_success_pmf

    def moved(params):
        pmf = list(exact(params))
        return [pmf[0] - 0.01, pmf[1] + 0.01, *pmf[2:]]
    monkeypatch.setattr(validation, "first_success_pmf", moved)
    assert main(["validate"]) == 1
    captured = capsys.readouterr()
    assert "binomial tail" in captured.err
    for point in ("d_t=300 flow=30", "d_t=0 flow=10", "d_t=-100 flow=20"):
        for n in (0, 1):
            line = next(row for row in captured.out.splitlines()
                        if row.startswith(f"{point} n={n} "))
            assert line.endswith("VIOLATION"), line


def test_validate_rejects_too_few_trials(capsys):
    assert main(["validate", "--trials", "100"]) == 2
    assert "10000" in capsys.readouterr().err


def test_validate_rejects_trials_past_the_bound_before_replaying(monkeypatch, capsys):
    """One trial past MAX_TRIALS exits 2; at the bound the replay (stubbed) runs."""
    calls = []
    monkeypatch.setattr(validation, "mc_first_success_counts",
                        lambda params, trials, rng:
                        calls.append(trials) or [0] * validation.N_CHECK)
    assert main(["validate", "--trials", str(validation.MAX_TRIALS + 1), "--point", "0:10"]) == 2
    assert "trials" in capsys.readouterr().err and calls == []
    main(["validate", "--trials", str(validation.MAX_TRIALS), "--point", "0:10"])
    assert calls == [validation.MAX_TRIALS]


@pytest.mark.parametrize("source", ["set", "file"])
@pytest.mark.parametrize("key, value", [("tau_mode", "fixed"), ("tau_fixed", "64"),
                                        ("bsm_probe_count", "4"), ("rsu_x", "0"),
                                        ("rsu_y", "0")])
def test_removed_tau_keys_exit_2_naming_the_key(tmp_path, capsys, source, key, value):
    """A fixed tau is ``tau_low = tau_high``, each BSM sender probes one
    receiver and the RSU stands at the origin
    (``core.RSU_POSITION``); the old keys are unknown."""
    if source == "set":
        argv = ["--set", f"{key}={value}"]
    else:
        (tmp_path / "old.cfg").write_text(f"{key} = {value}\n")
        argv = ["--config", str(tmp_path / "old.cfg")]
    assert main(["simulate", "--out", str(tmp_path / "o"), *FAST, *argv]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "set"])
@pytest.mark.parametrize("command", ["simulate", "trace"])
def test_rejected_run_writes_nothing(tmp_path, capsys, command, source):
    """A run validates its scenario before it creates --out or opens the trace file."""
    if source == "set":
        argv = ["--set", "t_sum=-5"]
    else:
        (tmp_path / "bad.cfg").write_text("t_sum = -5\n")
        argv = ["--config", str(tmp_path / "bad.cfg")]
    assert main([command, "--out", str(tmp_path / "o"), *FAST, *argv]) == 2
    assert "t_sum must be > 0 ms" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "analytic", "validate", "trace"])
def test_missing_calibration_file_exits_2_naming_it_and_writes_nothing(
        tmp_path, capsys, command):
    curve = tmp_path / "missing.per"
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert main([command, *out, *FAST, "--set", f"per_curve={curve}"]) == 2
    err = capsys.readouterr().err
    assert f"cannot read calibration file {curve}" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_validate_bad_point_spec(capsys):
    assert main(["validate", "--point", "nope"]) == 2


def test_trace_writes_transition_lines(tmp_path):
    out = tmp_path / "t.trace"
    assert main(["trace", "--out", str(out), "--set", "sim_duration=20000",
                 "--set", "warmup=0", "--set", "flow_rate=3",
                 "--set", "bsm_period=1000"]) == 0
    lines = out.read_text().splitlines()
    assert lines and all(len(line.split("\t")) == 5 for line in lines)


# TMP/FILE is a regular file, TMP/DIR a directory, and TMP/META a directory
# whose run.meta is a directory. Each error names the path it could not write.
@pytest.mark.parametrize("command, out", [
    ("simulate", "FILE/sub"),
    ("sweep", "FILE"),
    ("trace", "DIR"),
    ("analytic", "DIR"),
    ("simulate", "META"),
])
def test_unwritable_out_exits_1_with_a_one_line_reason(tmp_path, capsys, command, out):
    (tmp_path / "FILE").write_text("")
    (tmp_path / "DIR").mkdir()
    (tmp_path / "META" / "run.meta").mkdir(parents=True)
    assert main([command, "--out", str(tmp_path / out), *FAST]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"v2isim {command}: ") and err.count("\n") == 1
    named = "META/run.meta" if out == "META" else out.split("/")[0]
    assert str(tmp_path / named) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analytic", "validate"])
def test_model_commands_read_the_calibration_file_once_per_command(
        tmp_path, capsys, monkeypatch, command):
    """One read builds the model for every density or point, after they are validated."""
    curve = tmp_path / "default.per"
    curve.write_text(channel.dumps_per_curve(channel.default_calibration()))
    reads = []
    load = channel.load_per_curve
    monkeypatch.setattr(channel, "load_per_curve", lambda path: reads.append(path) or load(path))
    outputs = []
    for per_curve in (str(curve), "default"):
        out = tmp_path / f"{per_curve == 'default'}.csv"
        argv = ["--out", str(out)] if command == "analytic" else ["--trials", "10000"]
        assert main([command, *argv, "--set", f"per_curve={per_curve}"]) == 0
        outputs.append(out.read_bytes() if command == "analytic" else capsys.readouterr().out)
    assert reads == [str(curve)]
    assert outputs[0] == outputs[1]


def test_simulate_with_bsms_reads_the_calibration_file_once(tmp_path, monkeypatch):
    """The run reads its curve once, after validating; ``bsm_per`` reuses that curve."""
    curve = tmp_path / "default.per"
    curve.write_text(channel.dumps_per_curve(channel.default_calibration()))
    reads = []
    load = channel.load_per_curve
    monkeypatch.setattr(channel, "load_per_curve", lambda path: reads.append(path) or load(path))
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out), *FAST, "--set", f"per_curve={curve}"]) == 0
    assert reads == [str(curve)]
    header, row = (out / "summary.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["bsm_per"] != ""


def test_sweep_parses_the_calibration_file_once(tmp_path, monkeypatch):
    """The sweep's own check and both cells share one parse of the same bytes."""
    curve = tmp_path / "default.per"
    # A comment naming this run's directory: no earlier load has these bytes.
    curve.write_text(channel.dumps_per_curve(channel.default_calibration())
                     + f"# {tmp_path}\n")
    parses = []
    parse = channel.parse_per_curve
    monkeypatch.setattr(channel, "parse_per_curve",
                        lambda text: parses.append(text) or parse(text))
    assert main(["sweep", "--out", str(tmp_path / "out"), "--d-t", "1400,1200",
                 "--flows", "4", "--parallel", "1", *FAST,
                 "--set", f"per_curve={curve}"]) == 0
    assert len(parses) == 1


def test_derive_cell_seed_stable_and_distinct():
    a = derive_cell_seed(1, 300.0, 10.0)
    assert a == derive_cell_seed(1, 300.0, 10.0)
    assert a != derive_cell_seed(1, 0.0, 10.0)
    assert a != derive_cell_seed(2, 300.0, 10.0)
    assert 0 <= a < 2**63


def test_flow_needing_too_many_arrivals_exits_2_before_generating_any(
        tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("arrivals generated for a rejected config")
    monkeypatch.setattr(mobility, "generate_arrivals", never)
    assert main(["simulate", "--out", str(tmp_path / "o"), "--set", "flow_rate=1e6"]) == 2
    assert "flow_rate * sim_duration" in capsys.readouterr().err


# Drawn --set values. Every field mixes edge values (zero, negatives, non-finite,
# huge, tiny, malformed text) with an in-range interval that keeps an accepted
# run short on top of SHORT_RUN.
_INT_EDGES = ["0", "-1", str(2**63 - 1), str(2**63), str(-2**63 - 1), "1" + "0" * 30,
              "1" + "0" * 400, "1.5", "x", ""]
_FLOAT_EDGES = ["0", "-0.0", "-1", "nan", "inf", "-inf", "1e300", "-1e300", "5e-324",
                "1e-320", "1e6", "x", ""]
_INT_RANGES = {
    "b_ack": (1, 20), "t_sum": (50, 2000), "t_ack": (1, 2000), "sam_period": (1, 2000),
    "bsm_period": (1, 3000), "lane_count": (1, 40), "sim_duration": (1, 3000),
    "warmup": (0, 3000), "rng_seed": (0, 2**32), "tau_low": (0, 300),
    "tau_high": (0, 300),
}
_FLOAT_RANGES = {
    "d_t": (-1600.0, 1600.0), "flow_rate": (0.01, 100.0), "mean_speed": (1.0, 60.0),
    "road_length": (100.0, 6000.0), "lane_width": (0.5, 10.0),
}
_FIELD_VALUES = {
    **{name: st.one_of(st.sampled_from(_INT_EDGES), st.integers(*bounds).map(str))
       for name, bounds in _INT_RANGES.items()},
    **{name: st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats(*bounds).map(repr))
       for name, bounds in _FLOAT_RANGES.items()},
    "per_curve": st.sampled_from(["default", "no/such/calibration.per", ""]),
}
SHORT_RUN = {"sim_duration": "2000", "warmup": "0"}


def test_drawn_fields_cover_the_whole_config():
    assert set(_FIELD_VALUES) == {f.name for f in dataclasses.fields(ScenarioConfig)}


# At most two fields per example keeps every accepted run short on top of
# SHORT_RUN: a huge sim_duration passes validation only together with a tiny
# flow_rate, a huge bsm_period and a huge sam_period, which takes four fields.
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(sorted(_FIELD_VALUES)), min_size=1, max_size=2, unique=True)
       .flatmap(lambda names: st.fixed_dictionaries({n: _FIELD_VALUES[n] for n in names})))
def test_simulate_any_field_values_exit_0_or_2_with_a_reason(tmp_path_factory, drawn):
    assignments = {**SHORT_RUN, **drawn}
    argv = ["simulate", "--out", str(tmp_path_factory.mktemp("prop"))]
    for key, value in assignments.items():
        argv += ["--set", f"{key}={value}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0 or (code == 2 and "v2isim simulate:" in err.getvalue()), (
        drawn, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
