"""Command-line front end.

Subcommands: fano-direct, fano-homodyne, sweep, figure3, figure4, calibrate,
validate.  Every physical option can come from a configuration file
(``--config``, flat ``key = value`` lines or JSON) with command-line flags
taking precedence.  The environment variable SQT_SEED overrides the master
seed.  Exit codes: 0 success, 2 configuration error, 3 physics-domain error
(laser threshold, no below-threshold samples, failed calibration fit),
4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import analytics as an
from . import ensemble as en
from . import io as sio
from . import medium as md
from . import photostatistics as ps
from . import validation
from .errors import (
    AllSamplesAboveThreshold,
    FitFailed,
    ThresholdReached,
    ValidityWarning,
)


class ConfigError(Exception):
    pass


def _parse_bool(text):
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_float_list(text):
    parts = (text if isinstance(text, (list, tuple))
             else [part for part in str(text).split(",") if part.strip() != ""])
    if not parts:
        raise ValueError("empty list")
    return [_parse_float(part) for part in parts]


def _parse_int(value):
    # a JSON number arrives as int or float, and bool is a subclass of int
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "str": str,
    "bool": _parse_bool,
    "floats": _parse_float_list,
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON config: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be an object")
        return data
    data = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        data[key.strip().replace("-", "_")] = value.strip()
    return data


def _resolve(options, args) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    resolved = {name: default for name, _, default, _ in options}
    parser_of = {name: _PARSERS[kind] for name, kind, _, _ in options}
    file_values = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
    for key, raw in file_values.items():
        if key not in resolved:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            resolved[key] = parser_of[key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    for name in resolved:
        value = getattr(args, name, None)
        if value is not None:
            try:
                resolved[name] = parser_of[name](value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"option --{name.replace('_', '-')}: {exc}") from None
    if "seed" in resolved and os.environ.get("SQT_SEED"):
        try:
            resolved["seed"] = int(os.environ["SQT_SEED"])
        except ValueError:
            raise ConfigError("SQT_SEED must be an integer") from None
    _check_domains(resolved)
    return resolved


def _reject(name: str, message: str):
    raise ConfigError(f"option --{name.replace('_', '-')}: {message}")


def _check_lengths(name: str, lengths, hint: str = "") -> None:
    """The Ohm's-law fit needs three or more positive lengths spanning a factor of four."""
    if len(lengths) < 3 or min(lengths) <= 0 or max(lengths) / min(lengths) < 4:
        _reject(name, f"calibration lengths {lengths} are not three or more positive "
                      f"lengths spanning a factor of four{hint}")


def _check_domains(cfg) -> None:
    """Reject every option value outside its domain, before any work starts."""
    if cfg.get("n_modes", 1) < 1:
        _reject("n_modes", f"{cfg['n_modes']} modes, need >= 1")
    for name in ("incident_mode", "probe_mode"):
        if name in cfg and not 0 <= cfg[name] < cfg["n_modes"]:
            _reject(name, f"mode {cfg[name]} outside 0..{cfg['n_modes'] - 1} for --n-modes "
                          f"{cfg['n_modes']}")
    if cfg.get("threads", 1) < 1:
        _reject("threads", f"{cfg['threads']} worker processes, need >= 1")
    for name in ("samples", "calibration_samples", "mc_samples"):
        if cfg.get(name, 2) < 2:
            _reject(name, f"{cfg[name]} realizations, need >= 2")
    if cfg.get("averaging", en.RATIO_OF_MEANS) not in (en.RATIO_OF_MEANS, en.MEAN_OF_RATIOS):
        _reject("averaging", f"must be {en.RATIO_OF_MEANS} or {en.MEAN_OF_RATIOS}, "
                             f"got {cfg['averaging']!r}")
    if cfg.get("seed", 0) < 0:
        _reject("seed", f"{cfg['seed']}, need >= 0")
    for name in ("l_over_xi", "scatter_strength", "mean_free_path", "s_max_absorbing",
                 "s_max_amplifying"):
        if cfg.get(name) is not None and cfg[name] <= 0:
            _reject(name, f"{cfg[name]}, need > 0")
    for name in ("n_phases", "points"):
        if cfg.get(name, 1) < 1:
            _reject(name, f"{cfg[name]}, need >= 1")
    if not 0 <= cfg.get("efficiency", 0) <= 1:
        _reject("efficiency", f"{cfg['efficiency']} outside [0, 1]")
    if not 0 < cfg.get("coupling", 0.5) < 1:
        _reject("coupling", f"{cfg['coupling']} outside (0, 1)")
    for name in ("rho", "s"):
        values = cfg.get(name, [])
        if min(values if isinstance(values, list) else [values], default=0) < 0:
            _reject(name, f"{values}, need >= 0")
    if "lengths" in cfg:
        _check_lengths("lengths", cfg["lengths"])
    if "mean_free_path" in cfg and cfg["mean_free_path"] is None:
        _check_lengths("scatter_strength", _calibration_lengths(cfg["scatter_strength"]),
                       "; give --mean-free-path")
    if "occupation" in cfg:  # the Monte Carlo commands
        if cfg["medium"] not in _MEDIUM_SIGNS:
            _reject("medium", f"must be absorbing or amplifying, got {cfg['medium']!r}")
        f = _default_occupation(cfg)
        if cfg["medium"] == "absorbing" and f < 0:
            _reject("occupation", f"{f}, an absorbing medium needs >= 0")
        if cfg["medium"] == "amplifying" and not -1 <= f < 0:
            _reject("occupation", f"{f}, an amplifying medium needs [-1, 0)")
    if ("fano_in" in cfg and "alpha" in cfg and cfg.get("quantity", "direct") == "direct"
            and cfg["fano_in"] is None and cfg["alpha"] == 0 and cfg["rho"] == 0):
        _reject("fano_in", "the vacuum input (--alpha 0 --rho 0) has no Fano factor; "
                           "give --fano-in")


def _add_options(parser, options):
    parser.add_argument("--config", help="key = value or JSON configuration file")
    for name, kind, default, help_text in options:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, default=None, metavar=kind.upper(),
                            help=f"{help_text} (default: {default})")


_MEDIUM_SIGNS = {"absorbing": 1, "amplifying": -1}


def _default_occupation(cfg) -> float:
    if cfg["occupation"] is not None:
        return cfg["occupation"]
    return 1e-3 if cfg["medium"] == "absorbing" else -1.0


def _calibration_lengths(scatter_strength: float) -> list[int]:
    """Slab lengths of the auto-calibration, around the slice model's 2 / eps^2."""
    base = 2.0 / scatter_strength ** 2
    return [max(2, round(base * factor)) for factor in (0.5, 1, 2, 4)]


def _mean_free_path(cfg) -> float:
    if cfg["mean_free_path"] is not None:
        return cfg["mean_free_path"]
    result = md.calibrate_mean_free_path(
        cfg["n_modes"], cfg["scatter_strength"], _calibration_lengths(cfg["scatter_strength"]),
        cfg["calibration_samples"], cfg["seed"], workers=cfg["threads"],
    )
    return result.mean_free_path


def _emit(cfg, command, columns, rows):
    header = {key: (",".join(str(v) for v in value) if isinstance(value, list) else value)
              for key, value in sorted(cfg.items())}
    if cfg.get("output"):
        sio.write_csv(cfg["output"], columns, rows, header)
    if cfg.get("json"):
        sio.write_json(cfg["json"], command, header, columns, rows)
    if not cfg.get("output") and not cfg.get("json"):
        print("\n".join(sio.csv_lines(columns, rows)))


_COMMON_MC = [
    ("n_modes", "int", 50, "number of propagating modes N"),
    ("l_over_xi", "float", 0.1, "mean free path over absorption length"),
    ("medium", "str", "absorbing", "absorbing or amplifying"),
    ("occupation", "float", None, "signed Bose-Einstein occupation f"),
    ("efficiency", "float", 1.0, "detector efficiency d"),
    ("samples", "int", 500, "disorder realizations per point"),
    ("seed", "int", 1, "master seed (SQT_SEED overrides)"),
    ("scatter_strength", "float", 0.32, "slice scattering strength"),
    ("mean_free_path", "float", None, "calibrated mean free path (auto if absent)"),
    ("calibration_samples", "int", 100, "samples per length for auto-calibration"),
    ("mode_average", "bool", True, "average over mode indices"),
    ("averaging", "str", en.RATIO_OF_MEANS, "ratio_of_means or mean_of_ratios"),
    ("threads", "int", 1, "worker processes, the calling one included"),
    ("output", "str", None, "CSV output path"),
    ("json", "str", None, "JSON output path"),
]

_STATE = [
    ("alpha", "float", 1.0, "displacement magnitude of the incident state"),
    ("rho", "float", 0.0, "squeezing magnitude of the incident state"),
    ("phi", "float", 0.0, "squeezing phase of the incident state"),
    ("incident_mode", "int", 0, "0-based incident mode index"),
]

DIRECT_OPTIONS = _COMMON_MC + _STATE + [
    ("s", "floats", [1.0], "lengths s = L/xi_a, ascending"),
    ("fano_in", "floats", None, "incident Fano factors (overrides the state)"),
]

HOMODYNE_OPTIONS = _COMMON_MC + _STATE + [
    ("s", "floats", [1.0], "lengths s = L/xi_a, ascending"),
    ("coupling", "float", 0.5, "homodyne beam-splitter coupling kappa"),
    ("probe_mode", "int", 0, "0-based probe (transmitted) mode index"),
    ("phase_policy", "str", "min", "min, fixed, or scan"),
    ("probe_phase", "float", 0.0, "probe phase for the fixed policy"),
    ("n_phases", "int", 64, "grid size for the scan policy"),
]


def _collect(cfg, s_values, probe_mode=0, incident_mode=0):
    sign = _MEDIUM_SIGNS[cfg["medium"]]
    occupation = _default_occupation(cfg)
    mean_free_path = _mean_free_path(cfg)
    if sign < 0 and any(s >= math.pi for s in s_values):
        raise ThresholdReached("requested s at or beyond the laser threshold")
    base = en.spec_for_ratios(cfg["n_modes"], max(s_values), cfg["l_over_xi"],
                              mean_free_path, sign, occupation,
                              cfg["scatter_strength"], 0)
    xi = mean_free_path / cfg["l_over_xi"]
    lengths = [s * xi for s in s_values]
    stats = en.collect_statistics(
        base, lengths, cfg["samples"], cfg["seed"],
        incident_mode=incident_mode, probe_mode=probe_mode,
        mode_average=cfg["mode_average"], workers=cfg["threads"],
    )
    return stats, occupation, mean_free_path


def _direct_rows(cfg):
    s_values = sorted(cfg["s"])
    state = ps.SqueezedInput(cfg["alpha"], cfg["rho"], cfg["phi"], cfg["incident_mode"])
    fano_ins = cfg["fano_in"] if cfg["fano_in"] is not None else [ps.fano_in_squeezed(state)]
    config = ps.DetectionConfig(cfg["efficiency"])
    positive = [s for s in s_values if s > 0]
    stats_per_length, occupation, _ = (
        _collect(cfg, positive, incident_mode=cfg["incident_mode"])
        if positive else ([], _default_occupation(cfg), None)
    )
    stats_of = dict(zip(positive, stats_per_length))
    amplifying = cfg["medium"] == "amplifying"

    rows = []
    for fano_in in fano_ins:
        for s in s_values:
            if s == 0:
                # a transparent segment: T = 1 and no beating
                value = 1.0 + sum(ps.direct_fano_terms(1.0, 0.0, fano_in, cfg["efficiency"],
                                                       occupation))
                rows.append({"s": s, "n_modes": cfg["n_modes"], "f_in": fano_in,
                             "fano_mc": value, "stderr": 0.0, "fano_analytic": value,
                             "n_samples": cfg["samples"], "n_skipped": 0})
                continue
            result = en.result_from_statistics(
                stats_of[s], state, config, occupation,
                incident_fano=fano_in, averaging_mode=cfg["averaging"],
            )
            ratios = an.WaveguideRatios(s=s, l_over_xi=cfg["l_over_xi"],
                                        efficiency=cfg["efficiency"],
                                        occupation=occupation, fano_in=fano_in)
            analytic = (an.fano_direct_amplifying_avg(ratios) if amplifying
                        else an.fano_direct_absorbing_avg(ratios))
            rows.append({"s": s, "n_modes": cfg["n_modes"], "f_in": fano_in,
                         "fano_mc": result.mean_fano, "stderr": result.stderr,
                         "fano_analytic": analytic, "n_samples": result.n_samples,
                         "n_skipped": result.n_skipped_above_threshold})
    columns = ["s", "n_modes", "f_in", "fano_mc", "stderr", "fano_analytic",
               "n_samples", "n_skipped"]
    return columns, rows


def _homodyne_rows(cfg):
    s_values = sorted(cfg["s"])
    if any(s <= 0 for s in s_values):
        raise ConfigError("homodyne sweeps need s > 0")
    policy = cfg["phase_policy"]
    if policy not in ("min", "fixed", "scan"):
        raise ConfigError(f"phase_policy must be min, fixed or scan, got {policy!r}")
    stats_per_length, occupation, _ = _collect(
        cfg, s_values, probe_mode=cfg["probe_mode"], incident_mode=cfg["incident_mode"])
    amplifying = cfg["medium"] == "amplifying"
    offsets = ([2 * math.pi * k / cfg["n_phases"] for k in range(cfg["n_phases"])]
               if policy == "scan" else [])

    rows = []
    for s, stats in zip(s_values, stats_per_length):
        ratios = an.WaveguideRatios(
            s=s, l_over_xi=cfg["l_over_xi"], efficiency=cfg["efficiency"],
            occupation=occupation, rho=cfg["rho"], coupling=cfg["coupling"],
            n_modes=cfg["n_modes"],
        )
        # (policy column, probe_phase column, assembly probe phase, offset, closed form)
        if policy == "fixed":
            cases = [("fixed", cfg["probe_phase"], cfg["probe_phase"], 0.0,
                      an.fano_homo_fixed_phase_avg(ratios, amplifying=amplifying))]
        else:
            cases = [("scan", offset, None, offset,
                      an.fano_homo_detuned_avg(ratios, offset, amplifying=amplifying))
                     for offset in offsets]
            minimum = (an.fano_homo_min_amplifying_avg(ratios) if amplifying
                       else an.fano_homo_min_absorbing_avg(ratios))
            cases.append(("min", float("nan"), None, 0.0, minimum))
        clean = [x for x in stats if x is not None]
        if not clean:
            raise AllSamplesAboveThreshold("every realization was above threshold")
        for label, shown_phase, probe_phase, offset, analytic in cases:
            value, stderr = en.assemble_homodyne_fano(
                clean, cfg["rho"], cfg["phi"], cfg["efficiency"], cfg["coupling"],
                occupation, probe_phase, cfg["averaging"], relative_offset=offset)
            rows.append({"s": s, "n_modes": cfg["n_modes"], "rho": cfg["rho"],
                         "policy": label, "probe_phase": shown_phase,
                         "fano_mc": value, "stderr": stderr, "fano_analytic": analytic,
                         "n_samples": len(clean), "n_skipped": len(stats) - len(clean)})
    columns = ["s", "n_modes", "rho", "policy", "probe_phase", "fano_mc", "stderr",
               "fano_analytic", "n_samples", "n_skipped"]
    return columns, rows


def cmd_fano_direct(args) -> int:
    cfg = _resolve(DIRECT_OPTIONS, args)
    columns, rows = _direct_rows(cfg)
    _emit(cfg, "fano-direct", columns, rows)
    return 0


def cmd_fano_homodyne(args) -> int:
    cfg = _resolve(HOMODYNE_OPTIONS, args)
    columns, rows = _homodyne_rows(cfg)
    _emit(cfg, "fano-homodyne", columns, rows)
    return 0


SWEEP_OPTIONS = HOMODYNE_OPTIONS + [
    ("quantity", "str", "direct", "direct, homodyne-min or homodyne-fixed"),
    ("fano_in", "floats", None, "incident Fano factors (direct only)"),
]


def cmd_sweep(args) -> int:
    cfg = _resolve(SWEEP_OPTIONS, args)
    quantity = cfg["quantity"]
    if quantity == "direct":
        columns, rows = _direct_rows(cfg)
    elif quantity in ("homodyne-min", "homodyne-fixed"):
        cfg["phase_policy"] = "min" if quantity == "homodyne-min" else "fixed"
        columns, rows = _homodyne_rows(cfg)
    else:
        raise ConfigError(f"unknown quantity {quantity!r}")
    _emit(cfg, "sweep", columns, rows)
    return 0


_FIGURE_HEAD = [
    ("medium", "str", "both", "absorbing, amplifying or both"),
    ("l_over_xi", "float", 0.1, "mean free path over absorption length"),
    ("efficiency", "float", 1.0, "detector efficiency d"),
]
_FIGURE_OCCUPATIONS = [
    ("occupation_absorbing", "float", 1e-3, "occupation of the absorbing panel"),
    ("occupation_amplifying", "float", -1.0, "occupation of the amplifying panel"),
]
_FIGURE_TAIL = [
    ("points", "int", 240, "points per curve"),
    ("s_max_absorbing", "float", 12.0, "largest s of the absorbing panel"),
    ("s_max_amplifying", "float", 3.12, "largest s of the amplifying panel (< pi)"),
    ("output", "str", None, "CSV output path"),
    ("json", "str", None, "JSON output path"),
    ("seed", "int", 1, "unused; kept for config uniformity"),
]

FIGURE3_OPTIONS = _FIGURE_HEAD + _FIGURE_OCCUPATIONS + [
    ("fano_in", "floats", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], "incident Fano curve family"),
] + _FIGURE_TAIL

FIGURE4_OPTIONS = _FIGURE_HEAD + [
    ("coupling", "float", 0.5, "homodyne coupling kappa"),
    ("n_modes", "int", 10, "number of propagating modes N"),
] + _FIGURE_OCCUPATIONS + [
    ("rho", "floats", [0.0, 0.25, 0.5, 0.75, 1.0], "squeezing curve family"),
] + _FIGURE_TAIL

# command -> (options, curve-family column, family key of the config and of
# WaveguideRatios, absorbing and amplifying closed forms in ``analytics``)
_FIGURES = {
    "figure3": (FIGURE3_OPTIONS, "f_in", "fano_in",
                "fano_direct_absorbing_avg", "fano_direct_amplifying_avg"),
    "figure4": (FIGURE4_OPTIONS, "rho", "rho",
                "fano_homo_min_absorbing_avg", "fano_homo_min_amplifying_avg"),
}


def cmd_figure(args) -> int:
    """Closed-form curve families: figure 3 (direct) or figure 4 (homodyne minimum)."""
    options, column, family, *formulas = _FIGURES[args.command]
    cfg = _resolve(options, args)
    if cfg["s_max_amplifying"] >= math.pi:
        raise ConfigError("the amplifying panel must end below s = pi")
    if cfg["medium"] not in ("absorbing", "amplifying", "both"):
        raise ConfigError(f"medium must be absorbing, amplifying or both, got {cfg['medium']!r}")
    shared = {key: cfg[key] for key in ("coupling", "n_modes") if key in cfg}
    rows = []
    for name, formula in zip(("absorbing", "amplifying"), formulas):
        if cfg["medium"] not in (name, "both"):
            continue
        grid = np.linspace(0.05, cfg[f"s_max_{name}"], cfg["points"])
        for value in cfg[family]:
            for s in grid:
                ratios = an.WaveguideRatios(s=float(s), l_over_xi=cfg["l_over_xi"],
                                            efficiency=cfg["efficiency"],
                                            occupation=cfg[f"occupation_{name}"],
                                            **{family: value}, **shared)
                rows.append({"medium": name, column: value, "s": float(s),
                             "fano": getattr(an, formula)(ratios)})
    _emit(cfg, args.command, ["medium", column, "s", "fano"], rows)
    return 0


CALIBRATE_OPTIONS = [
    ("n_modes", "int", 25, "number of propagating modes N"),
    ("scatter_strength", "float", 0.32, "slice scattering strength"),
    ("lengths", "floats", [10.0, 20.0, 40.0, 80.0], "slab lengths for the Ohm fit"),
    ("samples", "int", 500, "realizations per length"),
    ("seed", "int", 1, "master seed (SQT_SEED overrides)"),
    ("output", "str", None, "CSV output path"),
    ("json", "str", None, "JSON output path"),
]


def cmd_calibrate(args) -> int:
    cfg = _resolve(CALIBRATE_OPTIONS, args)
    result = md.calibrate_mean_free_path(cfg["n_modes"], cfg["scatter_strength"],
                                         cfg["lengths"], cfg["samples"], cfg["seed"])
    rows = [{
        "n_modes": cfg["n_modes"],
        "scatter_strength": cfg["scatter_strength"],
        "mean_free_path": result.mean_free_path,
        "stderr": result.stderr,
        "intercept": result.intercept,
        "residual_rel": result.residual_rel,
    }]
    columns = list(rows[0])
    _emit(cfg, "calibrate", columns, rows)
    print(f"mean free path = {result.mean_free_path:.6g} "
          f"+- {result.stderr:.2g} slice units", file=sys.stderr)
    return 0


VALIDATE_OPTIONS = [
    ("level", "str", "fast", "fast or full"),
    ("mc_samples", "int", 300, "realizations used by the full-level MC checks"),
]


def cmd_validate(args) -> int:
    cfg = _resolve(VALIDATE_OPTIONS, args)
    if cfg["level"] not in ("fast", "full"):
        raise ConfigError("level must be fast or full")
    outcomes = validation.run_checks(cfg["level"], cfg["mc_samples"])
    failures = 0
    for outcome in outcomes:
        mark = "ok " if outcome.passed else "FAIL"
        detail = f"  ({outcome.detail})" if outcome.detail else ""
        print(f"[{mark}] {outcome.name}{detail}")
        failures += 0 if outcome.passed else 1
    print(f"{len(outcomes) - failures}/{len(outcomes)} checks passed")
    return 0 if failures == 0 else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqtransport",
        description="Squeezed light through absorbing/amplifying random media",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options, handler in (
        ("fano-direct", DIRECT_OPTIONS, cmd_fano_direct),
        ("fano-homodyne", HOMODYNE_OPTIONS, cmd_fano_homodyne),
        ("sweep", SWEEP_OPTIONS, cmd_sweep),
        ("figure3", FIGURE3_OPTIONS, cmd_figure),
        ("figure4", FIGURE4_OPTIONS, cmd_figure),
        ("calibrate", CALIBRATE_OPTIONS, cmd_calibrate),
        ("validate", VALIDATE_OPTIONS, cmd_validate),
    ):
        command = sub.add_parser(name)
        _add_options(command, options)
        command.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ThresholdReached, AllSamplesAboveThreshold, FitFailed) as exc:
        print(f"physics-domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
