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
from sqtransport import photostatistics as ps
from sqtransport import validation
from sqtransport.errors import ValidityWarning


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


def test_sweep_direct_matches_fano_direct(tmp_path):
    common = ["--n-modes", 5, "--s", "0.5,1", "--fano-in", "0", "--samples", 6,
              "--mean-free-path", 9.9, "--scatter-strength", 0.45, "--seed", 2]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sweep", "--quantity", "direct", *common, "--output", a]) == 0
    assert run(["fano-direct", *common, "--output", b]) == 0
    rows_a = sio.read_csv(a)[2]
    rows_b = sio.read_csv(b)[2]
    assert [r["fano_mc"] for r in rows_a] == [r["fano_mc"] for r in rows_b]


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
    ["sweep", "--threads", 0],
], ids=["direct-zero", "homodyne-negative", "sweep-zero"])
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
    (["sweep", "--calibration-samples", 1], "--calibration-samples"),
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
    (["sweep", "--quantity", "homodyne-min", "--coupling", 0], "--coupling"),
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
    (["fano-direct", "--n-modes", 2.5], "--n-modes"),
], ids=["calibrate-one", "direct-zero", "homodyne-one", "sweep-calibration-one",
        "direct-calibration-one", "validate-mc-one", "unknown-averaging",
        "l-over-xi-zero", "mean-free-path-zero", "mean-free-path-negative",
        "scatter-strength-zero", "scatter-strength-too-large-to-calibrate", "s-negative",
        "s-nan", "vacuum-input", "coupling-above-one", "coupling-zero", "no-phases",
        "no-modes", "efficiency-above-one", "rho-negative", "absorbing-occupation",
        "amplifying-occupation", "seed-negative", "calibrate-lengths", "figure-points",
        "config-modes-fractional", "config-samples-bool", "modes-fractional"])
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


def test_fano_direct_rows_equal_run_ensemble(tmp_path):
    # the CLI sweeps all s in one collection; each row must equal the
    # library's single-length ensemble at the same seed and sample count
    out = tmp_path / "d.csv"
    assert run(["fano-direct", "--n-modes", 5, "--s", "0.5,1", "--fano-in", "0,1.5",
                "--samples", 8, "--seed", 21, "--mean-free-path", 9.9,
                "--scatter-strength", 0.45, "--output", out]) == 0
    _, _, rows = sio.read_csv(out)
    assert len(rows) == 4
    for row in rows:
        spec = en.spec_for_ratios(5, row["s"], 0.1, 9.9, 1, 1e-3, 0.45, 0)
        result = en.run_ensemble(spec, ps.SqueezedInput(alpha=1.0), ps.DetectionConfig(1.0),
                                 8, 21, incident_fano=row["f_in"])
        assert row["fano_mc"] == result.mean_fano
        assert row["stderr"] == result.stderr


def test_threshold_exits_3():
    assert run(["fano-direct", "--medium", "amplifying", "--s", "3.2",
                "--n-modes", 4, "--samples", 4, "--mean-free-path", 9.9]) == 3


def test_figure3_beyond_threshold_exits_2():
    assert run(["figure3", "--s-max-amplifying", "3.2"]) == 2


def test_sqt_seed_env_override(tmp_path, monkeypatch):
    out = tmp_path / "o.csv"
    monkeypatch.setenv("SQT_SEED", "4242")
    assert run(["fano-direct", "--s", "0", "--samples", 4, "--seed", "1",
                "--output", out]) == 0
    header, _, _ = sio.read_csv(out)
    assert header["seed"] == "4242"


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
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_VALIDATE],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=300)
    assert "optimize 1" in result.stdout
    assert "[FAIL] analytic brackets pinned" in result.stdout
    assert result.returncode == 4


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


_SUBCOMMANDS = ("calibrate", "fano-direct", "fano-homodyne", "sweep", "figure3", "figure4",
                "validate")

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
