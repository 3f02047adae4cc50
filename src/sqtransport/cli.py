"""Command-line front end.

Subcommands: fano-direct, fano-homodyne, figure3, figure4, calibrate,
validate.  Every option is its default, overlaid by a configuration file
(``--config``, flat ``key = value`` lines or JSON), overlaid by its flag; any
value out of domain, and any flag the run does not read, is an error that
names its option.  Exit codes: 0 success (or stdout closed by its reader),
2 configuration error, 3 physics-domain error (laser threshold, no
below-threshold samples, failed calibration fit), 4 validation failure.
"""

from __future__ import annotations

import argparse
import functools
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


def _parse_bool(value):
    if isinstance(value, bool):
        return value
    # a JSON number or null is no boolean; flags and flat files give str
    lowered = value.strip().lower() if isinstance(value, str) else None
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _parse_float(text):
    value = float(text)
    if isinstance(text, bool) or not math.isfinite(value):  # JSON true is no number
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


def _parse_str(value):
    if not isinstance(value, str):  # a JSON null or number; flags and flat files give str
        raise ValueError(f"not a string: {value!r}")
    return value


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "str": _parse_str,
    "bool": _parse_bool,
    "floats": _parse_float_list,
}

_MEDIUM_SIGNS = {"absorbing": 1, "amplifying": -1}


def _one_of(*choices):
    return "str", lambda value: value in choices, "one of " + ", ".join(choices)


# option kind -> (its type in _PARSERS, the test of a parsed value, the domain
# that test admits); an option whose kind is a bare type takes any such value
_KINDS = {
    **{kind: (kind, None, None) for kind in _PARSERS},
    "count": ("int", lambda n: n >= 1, ">= 1"),
    "samples": ("int", lambda n: n >= 2, ">= 2"),
    "seed": ("int", lambda n: n >= 0, ">= 0"),
    "positive": ("float", lambda x: x > 0, "> 0"),
    "below_pi": ("float", lambda x: 0 < x < math.pi, "in (0, pi)"),
    "non_negative": ("float", lambda x: x >= 0, ">= 0"),
    "efficiency": ("float", lambda x: 0 <= x <= 1, "in [0, 1]"),
    "coupling": ("float", lambda x: 0 < x < 1, "in (0, 1)"),
    "non_negatives": ("floats", lambda xs: min(xs) >= 0, "each >= 0"),
    "positives": ("floats", lambda xs: min(xs) > 0, "each > 0"),
    "lengths": ("floats", md.fit_lengths_ok, md.FIT_LENGTHS_RULE),
    "medium": _one_of(*_MEDIUM_SIGNS),
    "media": _one_of(*_MEDIUM_SIGNS, "both"),
    "averaging": _one_of(en.RATIO_OF_MEANS, en.MEAN_OF_RATIOS),
    "policy": _one_of("min", "fixed", "scan"),
    "level": _one_of("fast", "full"),
    "path": ("str", lambda path: os.path.isdir(os.path.dirname(path) or "."),
             "a path in an existing directory"),
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
    """Defaults, overlaid by the config file, overlaid by explicit flags, each in its domain."""
    resolved = {name: default for name, _, default, _ in options}
    kind_of = {name: _KINDS[kind] for name, kind, _, _ in options}
    parser_of = {name: _PARSERS[kind_of[name][0]] for name in resolved}
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
    given = [name for name in resolved if getattr(args, name, None) is not None]
    for name in given:
        try:
            resolved[name] = parser_of[name](getattr(args, name))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"option --{name.replace('_', '-')}: {exc}") from None
    for name, value in resolved.items():
        _, within, domain = kind_of[name]
        if value is not None and within is not None and not within(value):
            _reject(name, f"{value!r}, need {domain}")
    _check_domains(resolved, given)
    return resolved


def _reject(name: str, message: str):
    raise ConfigError(f"option --{name.replace('_', '-')}: {message}")


# the options that a fano-direct run whose --s are all 0 reads
_ZERO_LENGTH_READS = {"s", "fano_in", "alpha", "rho", "phi", "efficiency", "medium", "occupation",
                      "n_modes", "samples", "output", "json"}


def _check_domains(cfg, given) -> None:
    """Reject, before any work starts, an option value out of range for another
    option, and a flag the run does not read; ``given`` names the flags set."""
    for name in ("incident_mode", "probe_mode"):
        if name in cfg and not 0 <= cfg[name] < cfg["n_modes"]:
            _reject(name, f"mode {cfg[name]} outside 0..{cfg['n_modes'] - 1} for --n-modes "
                          f"{cfg['n_modes']}")
    # a fano-direct run whose s are all 0 draws and calibrates nothing
    draws = max(cfg.get("s", [1.0])) > 0
    # a config file may hold keys the run does not read, a flag only what it reads
    if not draws and "fano_in" in cfg:
        for name in given:
            if name not in _ZERO_LENGTH_READS:
                _reject(name, "only a run with some --s > 0 reads it")
    policy = cfg.get("phase_policy")
    state_read = cfg.get("fano_in") is None  # --fano-in overrides the incident state
    # a mode-averaged run reads no incident mode, except the fixed policy's t_{n0 m0}
    mode_read = not cfg.get("mode_average") or policy == "fixed"
    for name, read, reader in (("probe_phase", policy == "fixed", "the fixed phase policy"),
                               ("n_phases", policy == "scan", "the scan phase policy"),
                               ("alpha", "fano_in" in cfg, "fano-direct"),
                               ("alpha", state_read, "a run without --fano-in"),
                               ("rho", state_read, "a run without --fano-in"),
                               ("phi", state_read, "a run without --fano-in"),
                               ("incident_mode", mode_read,
                                "--mode-average false or the fixed phase policy"),
                               ("seed", "points" not in cfg, "a command that draws samples"),
                               ("mc_samples", cfg.get("level") == "full", "--level full"),
                               ("calibration_samples", cfg.get("mean_free_path") is None,
                                "a run without --mean-free-path")):
        if name in given and not read:
            _reject(name, f"only {reader} reads it")
    if "mean_free_path" in cfg and cfg["mean_free_path"] is None and draws:
        lengths = _calibration_lengths(cfg["scatter_strength"])
        if not md.fit_lengths_ok(lengths):
            _reject("scatter_strength", f"calibration lengths {lengths} are not "
                                        f"{md.FIT_LENGTHS_RULE}; give --mean-free-path")
    if "occupation" in cfg:  # the Monte Carlo commands
        f = _default_occupation(cfg)
        if cfg["medium"] == "absorbing" and f < 0:
            _reject("occupation", f"{f}, an absorbing medium needs >= 0")
        if cfg["medium"] == "amplifying" and not -1 <= f < 0:
            _reject("occupation", f"{f}, an amplifying medium needs [-1, 0)")
    if ("fano_in" in cfg and "alpha" in cfg and cfg["fano_in"] is None
            and cfg["alpha"] == 0 and cfg["rho"] == 0):
        _reject("fano_in", "the vacuum input (--alpha 0 --rho 0) has no Fano factor; "
                           "give --fano-in")


def _add_options(parser, options):
    parser.add_argument("--config", help="key = value or JSON configuration file")
    for name, kind, default, help_text in options:
        kind, _, domain = _KINDS[kind]
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, default=None, metavar=kind.upper(),
                            help=f"{help_text} (default: {default}"
                                 + (f"; {domain})" if domain else ")"))


def _default_occupation(cfg) -> float:
    if cfg["occupation"] is not None:
        return cfg["occupation"]
    return 1e-3 if cfg["medium"] == "absorbing" else -1.0


def _calibration_lengths(scatter_strength: float) -> list[int]:
    """Slab lengths of the auto-calibration, around the slice model's 2 / eps^2."""
    base = 2.0 / scatter_strength ** 2 if scatter_strength ** 2 > 0 else math.inf
    if not math.isfinite(base * 4):
        _reject("scatter_strength", f"2 / eps^2 = {base!r} leaves calibration lengths that "
                                    "are not finite; give --mean-free-path")
    return [max(2, round(base * factor)) for factor in (0.5, 1, 2, 4)]


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
    ("n_modes", "count", 50, "number of propagating modes N"),
    ("l_over_xi", "positive", 0.1, "mean free path over absorption length"),
    ("medium", "medium", "absorbing", "medium kind"),
    ("occupation", "float", None, "signed Bose-Einstein occupation f"),
    ("efficiency", "efficiency", 1.0, "detector efficiency d"),
    ("samples", "samples", 500, "disorder realizations per point"),
    ("seed", "seed", 1, "master seed"),
    ("scatter_strength", "positive", 0.32, "slice strength eps: mode reflectance eps^2/(2+eps^2)"),
    ("mean_free_path", "positive", None, "calibrated mean free path (auto if absent)"),
    ("calibration_samples", "samples", 100, "samples per length for auto-calibration"),
    ("mode_average", "bool", True, "average over mode indices"),
    ("averaging", "averaging", en.RATIO_OF_MEANS, "averaging convention"),
    ("threads", "count", 1, "worker processes, the calling one included"),
]

_OUTPUTS = [
    ("output", "path", None, "CSV output path"),
    ("json", "path", None, "JSON output path"),
]

_STATE = [
    ("alpha", "float", 1.0, "displacement magnitude of the incident state"),
    ("rho", "non_negative", 0.0, "squeezing magnitude of the incident state"),
    ("phi", "float", 0.0, "squeezing phase of the incident state"),
    ("incident_mode", "int", 0, "0-based incident mode index"),
]

DIRECT_OPTIONS = _COMMON_MC + _STATE + [
    ("s", "non_negatives", [1.0], "lengths s = L/xi_a, sorted before the run"),
    ("fano_in", "floats", None, "incident Fano factors (overrides the state)"),
] + _OUTPUTS

HOMODYNE_OPTIONS = _COMMON_MC + _STATE + [
    ("s", "positives", [1.0], "lengths s = L/xi_a, sorted before the run"),
    ("coupling", "coupling", 0.5, "homodyne beam-splitter coupling kappa"),
    ("probe_mode", "int", 0, "0-based probe (transmitted) mode index"),
    ("phase_policy", "policy", "min", "probe phase policy"),
    ("probe_phase", "float", 0.0, "probe phase for the fixed policy"),
    ("n_phases", "count", 64, "grid size for the scan policy"),
] + _OUTPUTS


def _collect(cfg, s_values):
    sign = _MEDIUM_SIGNS[cfg["medium"]]
    occupation = _default_occupation(cfg)
    if sign < 0 and any(s >= math.pi for s in s_values):
        raise ThresholdReached("requested s at or beyond the laser threshold")
    mean_free_path = cfg["mean_free_path"]
    if mean_free_path is None:
        mean_free_path = md.calibrate_mean_free_path(
            cfg["n_modes"], cfg["scatter_strength"], _calibration_lengths(cfg["scatter_strength"]),
            cfg["calibration_samples"], cfg["seed"], workers=cfg["threads"]).mean_free_path
    xi = mean_free_path / cfg["l_over_xi"]
    # the slab length L = s xi_a and the decay length 3 xi_a^2 / l must be finite
    if not math.isfinite(max(s_values) * xi) or not math.isfinite(xi * xi):
        _reject("s", f"{max(s_values)!r}: L = s xi_a or 3 xi_a^2 / l overflows at xi_a = {xi:.3g}")
    base = en.spec_for_ratios(cfg["n_modes"], max(s_values), cfg["l_over_xi"],
                              mean_free_path, sign, occupation,
                              cfg["scatter_strength"], 0)
    lengths = [s * xi for s in s_values]
    stats = en.collect_statistics(
        base, lengths, cfg["samples"], cfg["seed"],
        incident_mode=cfg["incident_mode"], probe_mode=cfg.get("probe_mode", 0),
        mode_average=cfg["mode_average"], workers=cfg["threads"],
    )
    return stats, occupation


def _direct_rows(cfg):
    s_values = sorted(cfg["s"])
    state = ps.SqueezedInput(cfg["alpha"], cfg["rho"], cfg["phi"], cfg["incident_mode"])
    fano_ins = cfg["fano_in"] if cfg["fano_in"] is not None else [ps.fano_in_squeezed(state)]
    positive = [s for s in s_values if s > 0]
    stats_per_length, occupation = (_collect(cfg, positive) if positive
                                    else ([], _default_occupation(cfg)))
    kept_of = {s: en.drop_skipped(stats) for s, stats in zip(positive, stats_per_length)}
    amplifying = cfg["medium"] == "amplifying"

    rows = []
    for fano_in in fano_ins:
        for s in s_values:
            if s == 0:
                # a transparent segment: T = 1 and no beating
                value = 1.0 + sum(ps.direct_fano_terms(1.0, 0.0, fano_in, cfg["efficiency"],
                                                       occupation))
                stderr, analytic, n_samples, n_skipped = 0.0, value, cfg["samples"], 0
            else:
                stats, n_skipped = kept_of[s]
                value, stderr = en.assemble_direct_fano(stats, fano_in, cfg["efficiency"],
                                                        occupation, cfg["averaging"])
                ratios = an.WaveguideRatios(s=s, l_over_xi=cfg["l_over_xi"],
                                            efficiency=cfg["efficiency"],
                                            occupation=occupation, fano_in=fano_in)
                analytic = (an.fano_direct_amplifying_avg(ratios) if amplifying
                            else an.fano_direct_absorbing_avg(ratios))
                n_samples = len(stats)
            rows.append({"s": s, "n_modes": cfg["n_modes"], "f_in": fano_in,
                         "fano_mc": value, "stderr": stderr, "fano_analytic": analytic,
                         "n_samples": n_samples, "n_skipped": n_skipped})
    columns = ["s", "n_modes", "f_in", "fano_mc", "stderr", "fano_analytic",
               "n_samples", "n_skipped"]
    return columns, rows


def _homodyne_rows(cfg):
    s_values = sorted(cfg["s"])
    policy = cfg["phase_policy"]
    stats_per_length, occupation = _collect(cfg, s_values)
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
        kept, n_skipped = en.drop_skipped(stats)
        for label, shown_phase, probe_phase, offset, analytic in cases:
            value, stderr = en.assemble_homodyne_fano(
                kept, cfg["rho"], cfg["phi"], cfg["efficiency"], cfg["coupling"],
                occupation, probe_phase, cfg["averaging"], relative_offset=offset)
            rows.append({"s": s, "n_modes": cfg["n_modes"], "rho": cfg["rho"],
                         "policy": label, "probe_phase": shown_phase,
                         "fano_mc": value, "stderr": stderr, "fano_analytic": analytic,
                         "n_samples": len(kept), "n_skipped": n_skipped})
    columns = ["s", "n_modes", "rho", "policy", "probe_phase", "fano_mc", "stderr",
               "fano_analytic", "n_samples", "n_skipped"]
    return columns, rows


_FIGURE_HEAD = [
    ("medium", "media", "both", "medium kind of the panels"),
    ("l_over_xi", "positive", 0.1, "mean free path over absorption length"),
    ("efficiency", "efficiency", 1.0, "detector efficiency d"),
]
_FIGURE_OCCUPATIONS = [
    ("occupation_absorbing", "float", 1e-3, "occupation of the absorbing panel"),
    ("occupation_amplifying", "float", -1.0, "occupation of the amplifying panel"),
]
_FIGURE_TAIL = [
    ("points", "count", 240, "points per curve"),
    ("s_max_absorbing", "positive", 12.0, "largest s of the absorbing panel"),
    ("s_max_amplifying", "below_pi", 3.12, "largest s of the amplifying panel"),
    ("seed", "seed", 1, "unused; kept for config uniformity"),
] + _OUTPUTS

FIGURE3_OPTIONS = _FIGURE_HEAD + _FIGURE_OCCUPATIONS + [
    ("fano_in", "floats", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], "incident Fano curve family"),
] + _FIGURE_TAIL

FIGURE4_OPTIONS = _FIGURE_HEAD + [
    ("coupling", "coupling", 0.5, "homodyne coupling kappa"),
    ("n_modes", "count", 10, "number of propagating modes N"),
] + _FIGURE_OCCUPATIONS + [
    ("rho", "non_negatives", [0.0, 0.25, 0.5, 0.75, 1.0], "squeezing curve family"),
] + _FIGURE_TAIL


def _figure_rows(cfg, column, family, formulas):
    """Closed-form curve families over s, one per value of ``cfg[family]``.

    ``column`` names the family column; ``formulas`` names the absorbing and
    amplifying closed forms, each evaluated a curve at a time by
    ``analytics.fano_curve``.
    """
    shared = {key: cfg[key] for key in ("l_over_xi", "efficiency", "coupling", "n_modes")
              if key in cfg}
    rows = []
    for name, formula in zip(("absorbing", "amplifying"), formulas):
        if cfg["medium"] not in (name, "both"):
            continue
        grid = np.linspace(0.05, cfg[f"s_max_{name}"], cfg["points"]).tolist()
        for value in cfg[family]:
            curve = an.fano_curve(formula, grid, occupation=cfg[f"occupation_{name}"],
                                  **{family: value}, **shared)
            rows += [{"medium": name, column: value, "s": s, "fano": fano}
                     for s, fano in zip(grid, curve)]
    return ["medium", column, "s", "fano"], rows


CALIBRATE_OPTIONS = [
    ("n_modes", "count", 25, "number of propagating modes N"),
    ("scatter_strength", "positive", 0.32, "slice strength eps: mode reflectance eps^2/(2+eps^2)"),
    ("lengths", "lengths", [10.0, 20.0, 40.0, 80.0], "slab lengths for the Ohm fit"),
    ("samples", "samples", 500, "realizations per length"),
    ("seed", "seed", 1, "master seed"),
] + _OUTPUTS


def _calibrate_rows(cfg):
    result = md.calibrate_mean_free_path(cfg["n_modes"], cfg["scatter_strength"], cfg["lengths"],
                                         cfg["samples"], cfg["seed"], workers=md.usable_cores())
    print(f"mean free path = {result.mean_free_path:.6g} "
          f"+- {result.stderr:.2g} slice units", file=sys.stderr)
    row = {"n_modes": cfg["n_modes"], "scatter_strength": cfg["scatter_strength"],
           "mean_free_path": result.mean_free_path, "stderr": result.stderr,
           "intercept": result.intercept, "residual_rel": result.residual_rel}
    return list(row), [row]


VALIDATE_OPTIONS = [
    ("level", "level", "fast", "check level"),
    ("mc_samples", "samples", 300, "realizations used by the full-level MC checks"),
]


def _validate(cfg) -> int:
    """Print the self-check report; the exit code, 4 if any check failed."""
    outcomes = validation.run_checks(cfg["level"], cfg["mc_samples"])
    for outcome in outcomes:
        mark = "ok " if outcome.passed else "FAIL"
        detail = f"  ({outcome.detail})" if outcome.detail else ""
        print(f"[{mark}] {outcome.name}{detail}")
    failures = sum(not outcome.passed for outcome in outcomes)
    print(f"{len(outcomes) - failures}/{len(outcomes)} checks passed")
    return 0 if failures == 0 else 4


# subcommand -> (options, the function from the resolved options to the columns
# and rows to emit, or to an exit code)
COMMANDS = {
    "fano-direct": (DIRECT_OPTIONS, _direct_rows),
    "fano-homodyne": (HOMODYNE_OPTIONS, _homodyne_rows),
    "figure3": (FIGURE3_OPTIONS, functools.partial(
        _figure_rows, column="f_in", family="fano_in",
        formulas=("fano_direct_absorbing_avg", "fano_direct_amplifying_avg"))),
    "figure4": (FIGURE4_OPTIONS, functools.partial(
        _figure_rows, column="rho", family="rho",
        formulas=("fano_homo_min_absorbing_avg", "fano_homo_min_amplifying_avg"))),
    "calibrate": (CALIBRATE_OPTIONS, _calibrate_rows),
    "validate": (VALIDATE_OPTIONS, _validate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; only ``command``'s options, if one is named."""
    parser = argparse.ArgumentParser(
        prog="sqtransport",
        description="Squeezed light through absorbing/amplifying random media",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (options, _) in COMMANDS.items():
        subparser = sub.add_parser(name)
        if command in (None, name):
            _add_options(subparser, options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand comes first, as the top-level parser takes no other argument
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    options, function = COMMANDS[args.command]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            cfg = _resolve(options, args)
            table = function(cfg)
            if isinstance(table, int):  # validate prints its own report
                return table
            _emit(cfg, args.command, *table)
            return 0
    except BrokenPipeError:
        # the reader closed stdout; a quiet devnull takes the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ThresholdReached, AllSamplesAboveThreshold, FitFailed) as exc:
        print(f"physics-domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
