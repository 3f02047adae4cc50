import ast
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sqtransport import analytics as an
from sqtransport import cli
from sqtransport import ensemble as en
from sqtransport import io as sio
from sqtransport import medium as md
from sqtransport import validation
from sqtransport.errors import NearSingularCavity, ValidityWarning


def run(args):
    return cli.main([str(a) for a in args])


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"a": 1, "b": 0.1 + 1e-17, "c": "x"}, {"a": -2, "b": float("nan"), "c": ""}]
    sio.write_csv(path, ["a", "b", "c"], rows, {"k": 3, "z": 0.25})
    config, columns, back = sio.read_csv(path)
    assert columns == ["a", "b", "c"]
    assert config == {"k": "3", "z": "0.25"}
    assert back[0]["a"] == 1 and back[0]["b"] == rows[0]["b"] and back[0]["c"] == "x"
    assert math.isnan(back[1]["b"]) and back[1]["c"] is None


def _format_value_reference(value):
    """Reference for a CSV cell: the per-cell formatter before the type dispatch."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def test_csv_lines_match_the_per_cell_formatter():
    row = {"float": 0.1 + 1e-17, "np_float": np.float64(1 / 3), "nan": float("nan"),
           "np_nan": np.float64("nan"), "negative_zero": -0.0, "inf": float("inf"),
           "minus_inf": float("-inf"), "subnormal": 5e-324, "bool": True, "int": 7,
           "np_int": np.int64(-12), "str": "absorbing", "none": None}
    columns = [*row, "missing"]
    expected = ",".join(_format_value_reference(row.get(column)) for column in columns)
    assert sio.csv_lines(columns, [row, {}]) == [
        ",".join(columns), expected, "," * (len(columns) - 1)]


def test_fano_direct_zero_length(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["fano-direct", "--s", "0", "--fano-in", "0,1", "--efficiency", "0.8",
                "--samples", "6", "--output", out]) == 0
    _, _, rows = sio.read_csv(out)
    by_fin = {row["f_in"]: row for row in rows}
    assert by_fin[0]["fano_mc"] == pytest.approx(1 - 0.8, abs=1e-15)
    assert by_fin[1]["fano_mc"] == 1.0
    assert all(row["stderr"] == 0 for row in rows)
    assert all(row["fano_analytic"] == row["fano_mc"] for row in rows)


def test_fano_direct_zero_length_skips_the_calibration_checks(monkeypatch, capsys, tmp_path):
    # every s = 0: no calibration runs, so its lengths are not checked
    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", None)
    config = tmp_path / "run.cfg"
    config.write_text("scatter_strength = 2\n")
    assert run(["fano-direct", "--config", config, "--n-modes", 4, "--s", 0,
                "--samples", 4]) == 0
    assert capsys.readouterr().err == ""


def test_fano_direct_output_is_deterministic(tmp_path):
    out = tmp_path / "a.csv"
    args = ["fano-direct", "--n-modes", 6, "--s", "0.5", "--fano-in", "0",
            "--samples", 8, "--seed", 5, "--mean-free-path", 9.9,
            "--scatter-strength", 0.45, "--output", out]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_fano_direct_emits_analytic_column(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["fano-direct", "--n-modes", 6, "--s", "1.0", "--fano-in", "1",
                "--samples", 6, "--mean-free-path", 9.9, "--scatter-strength", 0.45,
                "--output", out]) == 0
    _, _, rows = sio.read_csv(out)
    w = an.WaveguideRatios(s=1.0, l_over_xi=0.1, efficiency=1.0, occupation=1e-3,
                           fano_in=1.0)
    assert rows[0]["fano_analytic"] == pytest.approx(an.fano_direct_absorbing_avg(w))
    assert rows[0]["n_samples"] == 6 and rows[0]["n_skipped"] == 0


def test_fano_homodyne_scan_min_equals_min_policy(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["fano-homodyne", "--n-modes", 5, "--s", "1.0", "--rho", 0.5,
                "--samples", 8, "--mean-free-path", 9.9, "--scatter-strength", 0.45,
                "--phase-policy", "scan", "--n-phases", 64, "--output", out]) == 0
    _, _, rows = sio.read_csv(out)
    scan = [r for r in rows if r["policy"] == "scan"]
    minimum = [r for r in rows if r["policy"] == "min"]
    assert len(scan) == 64 and len(minimum) == 1
    assert min(r["fano_mc"] for r in scan) == pytest.approx(minimum[0]["fano_mc"],
                                                            abs=1e-10)
    assert all(r["fano_mc"] >= minimum[0]["fano_mc"] - 1e-12 for r in scan)


@pytest.mark.parametrize("medium", ["absorbing", "amplifying"])
def test_fano_homodyne_scan_analytic_is_the_detuned_average(tmp_path, medium):
    out = tmp_path / "h.csv"
    assert run(["fano-homodyne", "--medium", medium, "--n-modes", 5, "--s", "0.5,1.0",
                "--rho", 0.7, "--efficiency", 0.9, "--coupling", 0.4, "--samples", 4,
                "--mean-free-path", 9.9, "--scatter-strength", 0.45,
                "--phase-policy", "scan", "--n-phases", 12, "--output", out]) == 0
    _, _, rows = sio.read_csv(out)
    scan = [r for r in rows if r["policy"] == "scan"]
    assert len(scan) == 24
    amplifying = medium == "amplifying"
    for row in scan:
        w = an.WaveguideRatios(s=row["s"], l_over_xi=0.1, efficiency=0.9,
                               occupation=-1.0 if amplifying else 1e-3, rho=0.7,
                               coupling=0.4, n_modes=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            expected = an.fano_homo_detuned_avg(w, row["probe_phase"], amplifying)
        assert row["fano_analytic"] == expected


def test_fano_homodyne_rho_zero_scan_is_flat(tmp_path):
    out = tmp_path / "h0.csv"
    assert run(["fano-homodyne", "--n-modes", 5, "--s", "1.0", "--rho", 0,
                "--samples", 6, "--mean-free-path", 9.9, "--scatter-strength", 0.45,
                "--phase-policy", "scan", "--n-phases", 16, "--output", out]) == 0
    _, _, rows = sio.read_csv(out)
    values = {r["fano_mc"] for r in rows if r["policy"] == "scan"}
    assert len(values) == 1  # beating term only


def test_figure3_families_and_shape(tmp_path):
    out = tmp_path / "f3.csv"
    assert run(["figure3", "--output", out, "--points", 60]) == 0
    _, columns, rows = sio.read_csv(out)
    assert columns == ["medium", "f_in", "s", "fano"]
    fins = sorted({r["f_in"] for r in rows})
    assert fins == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    media = {r["medium"] for r in rows}
    assert media == {"absorbing", "amplifying"}
    assert len(rows) == 2 * 7 * 60
    assert max(r["s"] for r in rows if r["medium"] == "amplifying") < math.pi


def test_figure4_families(tmp_path):
    out = tmp_path / "f4.csv"
    assert run(["figure4", "--output", out, "--points", 40]) == 0
    _, columns, rows = sio.read_csv(out)
    assert columns == ["medium", "rho", "s", "fano"]
    assert sorted({r["rho"] for r in rows}) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert len(rows) == 2 * 5 * 40


def test_config_file_and_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("n_modes = 7\ns = 0\nsamples = 6\nefficiency = 0.9\n")
    out = tmp_path / "out.csv"
    assert run(["fano-direct", "--config", config, "--fano-in", "0",
                "--efficiency", "0.5", "--output", out]) == 0
    header, _, rows = sio.read_csv(out)
    assert header["efficiency"] == "0.5"  # CLI wins over the file
    assert header["n_modes"] == "7"
    assert rows[0]["fano_mc"] == pytest.approx(0.5, abs=1e-15)


def test_json_config_and_json_output(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n_modes": 5, "s": [0], "samples": 6,
                                  "fano_in": [1.0]}))
    out = tmp_path / "out.json"
    assert run(["fano-direct", "--config", config, "--json", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["command"] == "fano-direct"
    assert payload["rows"][0]["fano_mc"] == 1.0


def test_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("warp_drive = on\n")
    assert run(["fano-direct", "--config", config]) == 2


def test_bad_medium_exits_2():
    assert run(["fano-direct", "--medium", "bogus", "--s", "0"]) == 2


@pytest.mark.parametrize("args", [
    ["fano-homodyne", "--n-modes", 4, "--probe-mode", 7, "--mean-free-path", 20,
     "--samples", 4],
    ["fano-direct", "--incident-mode", 9, "--n-modes", 6],
    ["fano-direct", "--incident-mode", -1],
], ids=["homodyne-probe", "direct-incident", "direct-negative"])
def test_mode_index_out_of_range_exits_2_before_calibration(args, monkeypatch, capsys):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration started")

    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", no_calibration)
    monkeypatch.setattr(cli.en, "collect_statistics", no_calibration)
    assert run(args) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["fano-direct", "--threads", 0],
    ["fano-homodyne", "--threads", -2, "--mean-free-path", 20],
], ids=["direct-zero", "homodyne-negative"])
def test_threads_below_one_exits_2_before_calibration(args, monkeypatch, capsys):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration started")

    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", no_calibration)
    monkeypatch.setattr(cli.en, "collect_statistics", no_calibration)
    assert run(args) == 2
    assert "--threads" in capsys.readouterr().err


def test_threads_below_one_in_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("threads = 0\n")
    assert run(["fano-direct", "--config", config]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("args, option", [
    (["calibrate", "--n-modes", 4, "--samples", 1], "--samples"),
    (["fano-direct", "--samples", 0], "--samples"),
    (["fano-homodyne", "--samples", 1, "--mean-free-path", 20], "--samples"),
    (["fano-direct", "--calibration-samples", 1, "--samples", 4], "--calibration-samples"),
    (["validate", "--level", "full", "--mc-samples", 1], "--mc-samples"),
    (["fano-direct", "--n-modes", 10, "--s", "0.5,1", "--samples", 20,
      "--averaging", "bogus"], "--averaging"),
    (["fano-direct", "--l-over-xi", 0], "--l-over-xi"),
    (["fano-direct", "--mean-free-path", 0], "--mean-free-path"),
    (["fano-direct", "--mean-free-path", -5], "--mean-free-path"),
    (["fano-direct", "--scatter-strength", 0], "--scatter-strength"),
    (["fano-direct", "--scatter-strength", 2], "--scatter-strength"),
    (["fano-direct", "--s", -1], "--s"),
    (["fano-direct", "--s", "0.5,nan"], "--s"),
    (["fano-direct", "--alpha", 0, "--rho", 0], "--fano-in"),
    (["fano-homodyne", "--coupling", 1.5, "--mean-free-path", 20], "--coupling"),
    (["fano-homodyne", "--coupling", 0], "--coupling"),
    (["fano-homodyne", "--phase-policy", "scan", "--n-phases", 0], "--n-phases"),
    (["fano-direct", "--n-modes", 0], "option --n-modes"),
    (["fano-direct", "--efficiency", 1.5], "--efficiency"),
    (["fano-homodyne", "--rho", -0.1, "--mean-free-path", 20], "--rho"),
    (["fano-direct", "--occupation", -0.1], "--occupation"),
    (["fano-direct", "--medium", "amplifying", "--occupation", 0.5], "--occupation"),
    (["fano-direct", "--seed", -1], "--seed"),
    (["calibrate", "--lengths", "10,20"], "--lengths"),
    (["figure3", "--points", -1], "--points"),
    (["fano-direct", "--config", {"n_modes": 2.5, "s": [0], "samples": 3}], "'n_modes'"),
    (["fano-direct", "--config", {"samples": True}], "'samples'"),
    (["figure3", "--config", {"efficiency": True, "points": 2}], "'efficiency'"),
    (["figure3", "--config", {"fano_in": [True, 0.5], "points": 2}], "'fano_in'"),
    (["fano-direct", "--config", {"mode_average": 1, "n_modes": 4, "s": [0], "samples": 4}],
     "'mode_average'"),
    (["fano-direct", "--n-modes", 2.5], "--n-modes"),
    (["fano-homodyne", "--phase-policy", "min", "--probe-phase", 2.0], "--probe-phase"),
    (["fano-homodyne", "--phase-policy", "scan", "--probe-phase", 2.0], "--probe-phase"),
    (["fano-homodyne", "--n-phases", 8], "--n-phases"),
    (["fano-homodyne", "--phase-policy", "fixed", "--n-phases", 8], "--n-phases"),
    (["fano-homodyne", "--n-modes", 4, "--s", 0.5, "--samples", 4, "--mean-free-path", 9.9,
      "--alpha", 7], "--alpha"),
    (["validate", "--level", "fast", "--mc-samples", 5], "--mc-samples"),
    (["fano-direct", "--n-modes", 4, "--s", 0.5, "--samples", 4, "--mean-free-path", 9.9,
      "--calibration-samples", 50], "--calibration-samples"),
    (["validate", "--level", "bogus"], "option --level:"),
    (["figure3", "--medium", "bogus"], "option --medium:"),
    (["fano-homodyne", "--s", 0, "--mean-free-path", 20], "option --s:"),
    (["figure3", "--s-max-amplifying", 3.2], "option --s-max-amplifying:"),
    (["fano-direct", "--n-modes", 4, "--s", 0, "--samples", 4, "--calibration-samples", 50],
     "--calibration-samples"),
    (["fano-direct", "--n-modes", 4, "--s", 0, "--samples", 4, "--threads", 2], "--threads"),
    (["fano-direct", "--n-modes", 4, "--s", 0, "--samples", 4, "--averaging",
      "mean_of_ratios"], "--averaging"),
    (["fano-direct", "--n-modes", 4, "--s", 0, "--samples", 4, "--mean-free-path", 9.9],
     "option --mean-free-path:"),
    (["fano-direct", "--n-modes", 4, "--s", 0, "--samples", 4, "--scatter-strength", 0.1],
     "option --scatter-strength:"),
    (["fano-direct", "--n-modes", 4, "--s", 0, "--samples", 4, "--mode-average", "false"],
     "option --mode-average:"),
    (["fano-direct", "--n-modes", 4, "--s", 0, "--samples", 4, "--seed", 9], "option --seed:"),
    (["fano-direct", "--n-modes", 4, "--s", 0, "--samples", 4, "--l-over-xi", 0.2],
     "option --l-over-xi:"),
    (["fano-direct", "--n-modes", 4, "--s", 0, "--samples", 4, "--incident-mode", 2],
     "option --incident-mode:"),
    (["fano-direct", "--n-modes", 4, "--s", 0.5, "--samples", 4, "--mean-free-path", 9.9,
      "--fano-in", 0, "--alpha", 3], "option --alpha:"),
    (["fano-direct", "--n-modes", 4, "--s", 0.5, "--samples", 4, "--mean-free-path", 9.9,
      "--fano-in", 0, "--rho", 0.5], "option --rho:"),
    (["fano-direct", "--n-modes", 4, "--s", 0.5, "--samples", 4, "--mean-free-path", 9.9,
      "--fano-in", 0, "--phi", 1.0], "option --phi:"),
    (["figure3", "--seed", 5], "option --seed:"),
    (["figure4", "--seed", 5], "option --seed:"),
    (["fano-direct", "--n-modes", 4, "--s", 0.5, "--samples", 4, "--mean-free-path", 9.9,
      "--incident-mode", 2], "option --incident-mode:"),
    (["fano-homodyne", "--n-modes", 4, "--s", 0.5, "--samples", 4, "--mean-free-path", 9.9,
      "--phase-policy", "min", "--incident-mode", 2], "option --incident-mode:"),
    (["fano-homodyne", "--n-modes", 4, "--s", 0.5, "--samples", 4, "--mean-free-path", 9.9,
      "--phase-policy", "scan", "--n-phases", 4, "--incident-mode", 2],
     "option --incident-mode:"),
    (["fano-direct", "--n-modes", 2, "--samples", 2, "--scatter-strength", 1e-200],
     "option --scatter-strength:"),
    (["fano-direct", "--n-modes", 2, "--samples", 2, "--scatter-strength", 1e-160],
     "option --scatter-strength:"),
], ids=["calibrate-one", "direct-zero", "homodyne-one", "direct-calibration-one",
        "validate-mc-one", "unknown-averaging", "l-over-xi-zero", "mean-free-path-zero",
        "mean-free-path-negative", "scatter-strength-zero",
        "scatter-strength-too-large-to-calibrate", "s-negative", "s-nan",
        "vacuum-input", "coupling-above-one", "coupling-zero", "no-phases", "no-modes",
        "efficiency-above-one", "rho-negative", "absorbing-occupation",
        "amplifying-occupation", "seed-negative", "calibrate-lengths", "figure-points",
        "config-modes-fractional", "config-samples-bool", "config-efficiency-bool",
        "config-fano-in-bool", "config-mode-average-number", "modes-fractional",
        "probe-phase-under-min", "probe-phase-under-scan", "n-phases-under-min",
        "n-phases-under-fixed", "alpha-under-homodyne", "mc-samples-under-fast",
        "calibration-samples-with-mean-free-path", "level-unknown", "figure-medium-unknown",
        "homodyne-s-zero", "figure-beyond-threshold", "calibration-samples-with-s-zero",
        "threads-with-s-zero", "averaging-with-s-zero", "mean-free-path-with-s-zero",
        "scatter-strength-with-s-zero", "mode-average-with-s-zero", "seed-with-s-zero",
        "l-over-xi-with-s-zero", "incident-mode-with-s-zero", "alpha-with-fano-in",
        "rho-with-fano-in", "phi-with-fano-in", "seed-under-figure3", "seed-under-figure4",
        "incident-mode-under-mode-average", "incident-mode-under-homodyne-min",
        "incident-mode-under-homodyne-scan", "scatter-strength-squared-underflows",
        "scatter-strength-lengths-overflow"])
def test_bad_samples_or_averaging_exits_2_before_calibration(args, option, monkeypatch,
                                                             capsys, tmp_path):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration started")

    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", no_calibration)
    monkeypatch.setattr(cli.en, "collect_statistics", no_calibration)
    # a dict stands for a JSON config file holding it
    config = tmp_path / "run.json"
    for arg in args:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    assert run([config if isinstance(arg, dict) else arg for arg in args]) == 2
    assert option in capsys.readouterr().err


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


# option kind -> values just outside each bound of its domain
_OUTSIDE = {
    "count": ["0"], "samples": ["1"], "seed": ["-1"], "positive": ["0"],
    "below_pi": ["0", "3.1416"], "non_negative": ["-1e-9"],
    "efficiency": ["-1e-9", "1.000001"], "coupling": ["0", "1"],
    "non_negatives": ["1,-1e-9"], "positives": ["1,0"],
    "lengths": ["10,20", "0,10,40", "10,20,39.9"],
    "medium": ["both"], "media": ["bogus"], "averaging": ["bogus"], "policy": ["bogus"],
    "level": ["bogus"], "path": ["missing-dir/out"],
}

_DOMAIN_OPTIONS = [(command, name, kind, default)
                   for command, (options, _) in cli.COMMANDS.items()
                   for name, kind, default, _ in options if cli._KINDS[kind][1] is not None]


def test_every_kind_with_a_domain_has_values_outside_it():
    assert set(_OUTSIDE) == {kind for kind, (_, within, _) in cli._KINDS.items() if within}


@pytest.mark.parametrize("command, name, kind, default", _DOMAIN_OPTIONS,
                         ids=[f"{command}-{name}" for command, name, _, _ in _DOMAIN_OPTIONS])
def test_option_domain_from_the_kind_table(command, name, kind, default, monkeypatch, capsys,
                                           tmp_path):
    _, within, domain = cli._KINDS[kind]
    assert default is None or within(default)
    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", _no_work)
    monkeypatch.setattr(cli.en, "collect_statistics", _no_work)
    monkeypatch.chdir(tmp_path)
    flag = "--" + name.replace("_", "-")
    for value in _OUTSIDE[kind]:
        assert run([command, f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"option {flag}: " in err and f"need {domain}" in err


def test_help_shows_each_domain(capsys):
    with pytest.raises(SystemExit):
        cli.main(["fano-direct", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "--samples INT disorder realizations per point (default: 500; >= 2)" in out


@pytest.mark.parametrize("calibrated", [False, True], ids=["mean-free-path", "calibrated"])
@pytest.mark.parametrize("flags", [["--s", "1e308"], ["--l-over-xi", "1e-320"]],
                         ids=["s", "l-over-xi"])
def test_overflowing_slab_length_exits_2(flags, calibrated, monkeypatch, capsys):
    # L = s xi_a overflows to inf: named before any sample is drawn
    def fitted(*args, **kwargs):
        return md.CalibrationResult(9.9, 0.1, 1.0, 0.0, ())

    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", fitted if calibrated else _no_work)
    monkeypatch.setattr(cli.en, "collect_statistics", _no_work)
    given = [] if calibrated else ["--mean-free-path", 9.9]
    assert run(["fano-direct", "--n-modes", 2, "--samples", 2, *given, *flags]) == 2
    assert "option --s: " in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["min", "scan"])
def test_json_output_is_strict_json(policy, tmp_path):
    # the min row has no probe phase: nan in the CSV, null in the JSON
    csv, out = tmp_path / "h.csv", tmp_path / "h.json"
    n_scan = 3 if policy == "scan" else 0
    scan = ["--n-phases", n_scan] if n_scan else []
    assert run(["fano-homodyne", "--n-modes", 4, "--s", 0.5, "--samples", 4,
                "--mean-free-path", 9.9, "--phase-policy", policy, *scan,
                "--output", csv, "--json", out]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is no JSON")

    rows = json.loads(out.read_text(), parse_constant=reject)["rows"]
    assert [row["policy"] for row in rows] == ["scan"] * n_scan + ["min"]
    assert rows[-1]["probe_phase"] is None
    assert math.isnan(sio.read_csv(csv)[2][-1]["probe_phase"])


@pytest.mark.parametrize("output", [None, 5])
def test_config_output_must_be_a_string(output, monkeypatch, capsys, tmp_path):
    # str(None) and str(5) would name a file in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"output": output, "points": 2}))
    assert run(["figure3", "--config", "run.json"]) == 2
    assert "'output'" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.json"]


def test_config_file_may_hold_the_phase_options_of_every_policy(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("probe_phase = 2.0\nn_phases = 8\n")
    out = tmp_path / "h.csv"
    assert run(["fano-homodyne", "--config", config, "--n-modes", 4, "--s", 0.5,
                "--samples", 4, "--mean-free-path", 9.9, "--output", out]) == 0
    _, _, rows = sio.read_csv(out)
    assert [row["policy"] for row in rows] == ["min"]


@pytest.mark.parametrize("args", [
    ["fano-direct", "--mode-average", "false"],
    ["fano-homodyne", "--phase-policy", "fixed", "--rho", 0.5],
], ids=["direct-without-mode-average", "homodyne-fixed"])
def test_incident_mode_is_accepted_where_the_run_reads_it(args, tmp_path):
    fano = []
    for mode in (0, 2):
        out = tmp_path / f"mode{mode}.csv"
        assert run([*args, "--n-modes", 4, "--s", 0.5, "--samples", 4, "--mean-free-path", 9.9,
                    "--incident-mode", mode, "--output", out]) == 0
        fano.append([row["fano_mc"] for row in sio.read_csv(out)[2]])
    assert fano[0] != fano[1]


def test_figure_config_file_may_hold_the_seed(tmp_path):
    config = tmp_path / "figure.cfg"
    config.write_text("seed = 5\n")
    out = tmp_path / "f3.csv"
    assert run(["figure3", "--config", config, "--points", 3, "--output", out]) == 0
    assert sio.read_csv(out)[0]["seed"] == "5"


@pytest.mark.parametrize("args, option", [
    (["figure3", "--output", "missing-dir/f.csv"], "--output"),
    (["fano-direct", "--n-modes", 4, "--s", 0.5, "--samples", 4, "--json",
      "missing-dir/x.json"], "--json"),
], ids=["figure3-output", "direct-json"])
def test_output_in_a_missing_directory_exits_2_before_calibration(args, option, monkeypatch,
                                                                  capsys, tmp_path):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration started")

    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", no_calibration)
    monkeypatch.chdir(tmp_path)
    assert run(args) == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fano-direct", "fano-homodyne"])
def test_all_samples_skipped_exits_3(command, monkeypatch, capsys):
    def always_failing(spec, seeds, lengths):
        return [[NearSingularCavity("forced") for _ in lengths] for _ in seeds]

    monkeypatch.setattr(en, "build_batch_checkpoints", always_failing)
    assert run([command, "--medium", "amplifying", "--n-modes", 3, "--s", "0.5,1",
                "--samples", 4, "--mean-free-path", 9.9]) == 3
    assert "every realization was at or beyond threshold" in capsys.readouterr().err


def test_int_options_take_integral_numbers_only():
    parse = cli._PARSERS["int"]
    assert [parse(value) for value in (3, 3.0, "3", -4.0)] == [3, 3, 3, -4]
    for value in (2.5, True, False, "2.5", float("nan"), float("inf"), [3]):
        with pytest.raises((ValueError, TypeError)):
            parse(value)


def test_calibration_needs_two_samples_per_length():
    for samples in (1, 0):
        with pytest.raises(ValueError):
            md.calibrate_mean_free_path(4, 0.32, [8, 16, 32], samples, seed=1)


def test_auto_calibration_runs_on_the_threads(tmp_path, monkeypatch):
    workers = []
    calibrate = md.calibrate_mean_free_path

    def recording(*args, **kwargs):
        workers.append(kwargs.get("workers"))
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", recording)
    out = tmp_path / "d.csv"
    texts = []
    for threads in (1, 2):
        assert run(["fano-direct", "--n-modes", 4, "--s", "0.5,1", "--fano-in", "0,1",
                    "--samples", 5, "--calibration-samples", 5, "--scatter-strength", 0.45,
                    "--threads", threads, "--seed", 3, "--output", out]) == 0
        lines = out.read_text().splitlines(True)
        assert f"# threads = {threads}\n" in lines
        texts.append([line for line in lines if not line.startswith("# threads = ")])
    assert workers == [1, 2]
    assert texts[0] == texts[1]


def test_calibrate_fits_on_every_usable_core(tmp_path, monkeypatch):
    workers = []
    calibrate = md.calibrate_mean_free_path

    def recording(*args, **kwargs):
        workers.append(kwargs.get("workers"))
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", recording)
    out = tmp_path / "c.csv"
    texts = []
    for cores in (1, 3):
        monkeypatch.setattr(cli.md, "usable_cores", lambda: cores)
        assert run(["calibrate", "--n-modes", 4, "--samples", 6, "--seed", 5,
                    "--output", out]) == 0
        texts.append(out.read_bytes())
    assert workers == [1, 3]
    assert texts[0] == texts[1]


def test_fano_direct_rows_equal_single_length_assembly(tmp_path):
    # the CLI sweeps all s in one collection; each row must equal a
    # single-length collection and assembly at the same seed and sample count
    out = tmp_path / "d.csv"
    assert run(["fano-direct", "--n-modes", 5, "--s", "0.5,1", "--fano-in", "0,1.5",
                "--samples", 8, "--seed", 21, "--mean-free-path", 9.9,
                "--scatter-strength", 0.45, "--output", out]) == 0
    _, _, rows = sio.read_csv(out)
    assert len(rows) == 4
    for row in rows:
        spec = en.spec_for_ratios(5, row["s"], 0.1, 9.9, 1, 1e-3, 0.45, 0)
        stats, _ = en.drop_skipped(en.collect_statistics(spec, [spec.total_length], 8, 21)[0])
        assert (row["fano_mc"], row["stderr"]) == en.assemble_direct_fano(
            stats, row["f_in"], 1.0, spec.occupation)


def test_threshold_exits_3():
    assert run(["fano-direct", "--medium", "amplifying", "--s", "3.2",
                "--n-modes", 4, "--samples", 4, "--mean-free-path", 9.9]) == 3


def test_threshold_exits_3_before_calibration(monkeypatch, capsys):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration started")

    monkeypatch.setattr(cli.md, "calibrate_mean_free_path", no_calibration)
    for command in ("fano-direct", "fano-homodyne"):
        assert run([command, "--medium", "amplifying", "--s", "3.2", "--samples", 4]) == 3
        assert "laser threshold" in capsys.readouterr().err


def test_figure3_beyond_threshold_exits_2():
    assert run(["figure3", "--s-max-amplifying", "3.2"]) == 2


def test_environment_does_not_set_the_seed(tmp_path, monkeypatch):
    # the seed comes from its default, the config file or --seed, nowhere else
    out = tmp_path / "o.csv"
    monkeypatch.setenv("SQT_SEED", "4242")
    assert run(["fano-direct", "--n-modes", 4, "--s", "0.5", "--samples", 4,
                "--mean-free-path", 9.9, "--seed", "1", "--output", out]) == 0
    header, _, _ = sio.read_csv(out)
    assert header["seed"] == "1"


def test_stdout_equals_the_output_file_without_its_header(tmp_path, capsys):
    args = ["fano-homodyne", "--n-modes", 4, "--s", "0.5,1", "--samples", 4,
            "--mean-free-path", 9.9, "--scatter-strength", 0.45, "--phase-policy", "scan",
            "--n-phases", 3]
    out = tmp_path / "h.csv"
    assert run([*args, "--output", out]) == 0
    assert capsys.readouterr().out == ""
    assert run(args) == 0
    lines = out.read_text().splitlines(keepends=True)
    assert capsys.readouterr().out == "".join(line for line in lines if not line.startswith("#"))


@pytest.mark.parametrize("check", [check for _, check in validation.FAST_CHECKS],
                         ids=[name for name, _ in validation.FAST_CHECKS])
def test_fast_check(check):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        check()


def test_validate_fast_passes(capsys):
    assert run(["validate", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "[ok ]" in out and "FAIL" not in out


def test_validate_detects_corrupted_formula(monkeypatch, capsys):
    # simulate a formula corruption: the pinned-constant check must trip
    broken = lambda s: an.direct_bracket_absorbing(s) * (1 + 1e-6)
    monkeypatch.setattr(validation.an, "direct_bracket_absorbing", broken)
    assert run(["validate", "--level", "fast"]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] analytic brackets pinned" in out


def _source_env():
    """The environment with this source tree first on PYTHONPATH, for a child python."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))


_CORRUPTED_VALIDATE = """
import sys
from sqtransport import analytics as an, cli, validation
exact = an.direct_bracket_absorbing
validation.an.direct_bracket_absorbing = lambda s: exact(s) * (1 + 1e-6)
print("optimize", sys.flags.optimize)
sys.exit(cli.main(["validate", "--level", "fast"]))
"""


def test_validate_detects_corrupted_formula_under_python_O():
    # python -O strips assert statements; the checks must still fail
    result = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_VALIDATE],
                            env=_source_env(), capture_output=True, text=True, timeout=300)
    assert "optimize 1" in result.stdout
    assert "[FAIL] analytic brackets pinned" in result.stdout
    assert result.returncode == 4


_IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
import sqtransport
# __main__ runs the command line on import
names = [info.name for info in pkgutil.iter_modules(sqtransport.__path__)
         if info.name != "__main__"]
for name in names:
    importlib.import_module("sqtransport." + name)
print(len(names), " ".join(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def modules_after_importing_every_module():
    """The modules loaded after a fresh interpreter imports every sqtransport module."""
    result = subprocess.run([sys.executable, "-c", _IMPORT_EVERY_MODULE], env=_source_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    count, *loaded = result.stdout.split()
    modules = [path for path in Path(cli.__file__).parent.glob("*.py")
               if path.stem not in ("__init__", "__main__")]
    assert int(count) == len(modules)
    return set(loaded)


def test_no_module_imports_scipy(modules_after_importing_every_module):
    # scipy is no declared dependency, and one import costs about 0.2 s of start-up
    assert sorted(module for module in modules_after_importing_every_module
                  if module.split(".")[0] == "scipy") == []


def test_no_module_imports_multiprocessing(modules_after_importing_every_module):
    # medium.map_seed_chunks loads them only when its pool opens; at import
    # every process, a benchmark pass's setup included, would pay for them
    assert {"multiprocessing", "concurrent.futures.process"} \
        & modules_after_importing_every_module == set()


def test_closed_stdout_ends_the_run_quietly():
    # figure3 writes more than a pipe buffer holds; the reader stops after one line
    process = subprocess.Popen([sys.executable, "-m", "sqtransport", "figure3"],
                               env=_source_env(), stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
    assert process.stdout.readline().startswith(b"medium,")
    process.stdout.close()
    assert process.wait(timeout=300) == 0
    assert process.stderr.read() == b""
    process.stderr.close()


def _parse_outcome(parser, argv, capsys):
    """Exit code, stdout and stderr of parsing ``argv``, which must exit."""
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv)
    return exit_info.value.code, *capsys.readouterr()


@pytest.mark.parametrize("argv", [[name, "--help"] for name in cli.COMMANDS]
                         + [["--help"], ["bogus"], ["bogus", "--help"], []],
                         ids=lambda argv: " ".join(argv) or "empty")
def test_main_parses_as_the_full_parser(argv, capsys, monkeypatch):
    # main builds only the named subcommand's options; help, an unknown
    # command and no command must read as with every subcommand's options
    expected = _parse_outcome(cli.build_parser(), argv, capsys)
    build, named = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: named.append(command) or build(command))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert (exit_info.value.code, *capsys.readouterr()) == expected
    assert named == [argv[0] if argv and argv[0] in cli.COMMANDS else None]


def test_only_the_option_checker_raises_config_errors():
    # every option error goes through _check_domains and _reject, which name the option
    tree = ast.parse(Path(cli.__file__).read_text())
    raisers = set()
    for definition in tree.body:
        for node in ast.walk(definition):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                raisers.add(getattr(definition, "name", f"line {node.lineno}"))
    assert raisers == {"_load_config_file", "_resolve", "_reject"}


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so runtime checks must raise instead
    package = Path(cli.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.slow
def test_validate_full_reports_the_known_mc_mismatch(capsys):
    # the full level includes the MC-vs-closed-form comparison, which is out
    # of tolerance at short lengths for this microscopic model (see the
    # acceptance suite); validate must report that honestly and exit 4
    assert run(["validate", "--level", "full", "--mc-samples", "60"]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] MC direct absorbing vs closed form" in out
    assert "[ok ] MC passive Ohm fit" in out
    fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1


_SUBCOMMANDS = ("calibrate", "fano-direct", "fano-homodyne", "figure3", "figure4", "validate")

# what pip's generated console script does for `name = "module:attr"`
_CONSOLE_SCRIPT = """
import sys
from {module} import {attr}
sys.argv[0] = "sqtransport"
sys.exit({attr}())
"""


def _assert_prints_usage(command, env=None):
    result = subprocess.run([*command, "--help"], env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: sqtransport")
    for name in _SUBCOMMANDS:
        assert name in result.stdout


def test_cli_entry_point_installed():
    # start the console script that pyproject.toml declares as an installed
    # wrapper would, from the source tree; run the installed script as well
    # wherever there is one on PATH
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as file:
        scripts = tomllib.load(file)["project"]["scripts"]
    module, attr = scripts["sqtransport"].split(":")
    wrapper = _CONSOLE_SCRIPT.format(module=module, attr=attr)
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    _assert_prints_usage([sys.executable, "-c", wrapper],
                         env=dict(os.environ, PYTHONPATH=path))
    installed = shutil.which("sqtransport")
    if installed is not None:
        _assert_prints_usage([installed])
